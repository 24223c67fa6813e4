#!/usr/bin/env python3
"""Exhaustively compare the focused prover against a brute-force
sequent-calculus enumerator.

Every sequence of category occurrences drawn from the demo lexicon's
distinct categories, up to --max-length, is proved toward --goal by
both engines; the script reports any count disagreement.  The oracle's
balance check is hoisted so unbalanced sequents (the vast majority)
are rejected without touching either engine's memo tables.  Each
length line and the summary give the prover's and the oracle's shares of
the wall time apart.
"""

import argparse
import itertools
import pathlib
import sys
import time

from lambeksem import (
    BETA_ETA_LONG,
    ProveOptions,
    category_to_text,
    extract_term,
    load_lexicon_file,
    normalize,
    parse_category,
    prove,
)
from lambeksem.terms import canonical_key

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from seqoracle import SequentOracle, balanced, reading_keys

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def distinct_categories(lexicon):
    seen = {}
    for entry in lexicon.entries:
        for sense in entry.senses:
            seen.setdefault(category_to_text(sense.category), sense.category)
    return [seen[k] for k in sorted(seen)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lexicon", default=str(DATA / "demo_lexicon.json"))
    ap.add_argument("--goal", default="S")
    ap.add_argument("--max-length", type=int, default=6)
    ap.add_argument("--compare-terms", action="store_true",
                    help="also compare normalized reading terms, not just counts")
    args = ap.parse_args()

    lexicon, _ = load_lexicon_file(args.lexicon)
    goal = parse_category(args.goal, lexicon.bases)
    cats = distinct_categories(lexicon)
    print("%d distinct categories, goal %s" % (len(cats), goal))

    oracle = SequentOracle(lexicon.bases)
    options = ProveOptions()
    total = derivable = mismatches = 0
    prover_s = oracle_s = 0.0
    t0 = time.perf_counter()
    for length in range(1, args.max_length + 1):
        for combo in itertools.product(cats, repeat=length):
            total += 1
            if not balanced(combo, goal):
                continue
            t1 = time.perf_counter()
            proofs = prove(list(combo), goal, options)
            t2 = time.perf_counter()
            expect = oracle.prove(tuple(combo), goal)
            prover_s += t2 - t1
            oracle_s += time.perf_counter() - t2
            if len(proofs) != len(expect):
                mismatches += 1
                print(
                    "MISMATCH %s: prover %d oracle %d"
                    % (" , ".join(map(str, combo)), len(proofs), len(expect))
                )
            elif args.compare_terms and proofs:
                got = sorted(
                    canonical_key(normalize(extract_term(p, lexicon.bases), BETA_ETA_LONG))
                    for p in proofs
                )
                want = sorted(reading_keys(tuple(combo), goal, lexicon.bases,
                                           oracle=oracle))
                if got != want:
                    mismatches += 1
                    print("TERM MISMATCH %s" % " , ".join(map(str, combo)))
            derivable += bool(proofs)
        print(
            "  length %d done: %d sequents, %d derivable, %d mismatches "
            "(%.1fs; prover %.2fs, oracle %.1fs)"
            % (length, total, derivable, mismatches, time.perf_counter() - t0,
               prover_s, oracle_s)
        )
    print(
        "swept %d sequents, %d derivable, %d mismatches in %.1fs "
        "(prover %.2fs, oracle %.1fs)"
        % (total, derivable, mismatches, time.perf_counter() - t0,
           prover_s, oracle_s)
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
