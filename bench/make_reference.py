#!/usr/bin/env python3
"""Regenerate the benchmark's oracle-derived reference data.

    python3 bench/make_reference.py

Writes bench/data/np_chain_parse_counts.json and
bench/data/sequent_sweep_proof_counts.json from the brute-force sequent
oracle in tests/seqoracle.py, never from the package's own prover.  The
np_chain table takes a few minutes: the fourth-level all-"a" chain alone
costs the oracle about 46 s.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lambeksem import load_lexicon_file, parse_category  # noqa: E402
from seqoracle import SequentOracle, reading_keys  # noqa: E402

import workloads  # noqa: E402


def oracle_parse_count(lexicon, sentence: str) -> int:
    """Distinct derivational readings across all sense assignments."""
    goal = parse_category("S", lexicon.bases)
    oracle = SequentOracle(lexicon.bases)
    senses = [lexicon.entry(w).senses for w in sentence.split()]
    keys: set[str] = set()
    for combo in itertools.product(*senses):
        cats = tuple(s.category for s in combo)
        keys |= reading_keys(cats, goal, lexicon.bases, oracle=oracle)
    return len(keys)


def np_reference_sentences() -> list[str]:
    """The round's sentences, with "the" for the/this, plus the all-"a"
    chains with Q = most that the round lacks (m = 2 and m = 4), which
    complete the 2/8/44/280 series."""
    out = [workloads.np_sentence(mask, q) for mask, q in workloads.np_round_shapes()]
    for m in range(1, 5):
        chain = workloads.np_sentence(("a",) * m, "most")
        if chain not in out:
            out.append(chain)
    return out


def make_np_table(lexicon) -> dict:
    counts = {}
    for sentence in np_reference_sentences():
        start = time.perf_counter()
        counts[sentence] = oracle_parse_count(lexicon, sentence)
        print(f"{counts[sentence]:5d}  {time.perf_counter() - start:7.2f}s  {sentence}",
              flush=True)
    return {"source": "tests/seqoracle.py, union of reading keys over sense assignments",
            "command": "python3 bench/make_reference.py",
            "parse_counts": counts}


def make_sweep_table(lexicon) -> dict:
    cats = workloads.distinct_categories(lexicon)
    goal = parse_category("S", lexicon.bases)
    texts = [workloads.category_to_text(c) for c in cats]
    oracle = SequentOracle(lexicon.bases)
    rows = []
    sequences = workloads.balanced_sequences(cats, goal)
    for seq in sequences:
        proofs = len(oracle.prove(tuple(cats[i] for i in seq), goal))
        if proofs:
            rows.append({"sequent": [texts[i] for i in seq], "proofs": proofs})
    print(f"{len(sequences)} balanced sequents, {len(rows)} derivable, "
          f"{sum(r['proofs'] for r in rows)} proofs")
    return {"source": "tests/seqoracle.py SequentOracle.prove",
            "command": "python3 bench/make_reference.py",
            "balanced_sequents": len(sequences),
            "derivable": rows}


def main() -> int:
    lexicon, _ = load_lexicon_file(str(ROOT / workloads.LEXICON_PATH))
    tables = [("sequent_sweep_proof_counts.json", make_sweep_table(lexicon)),
              ("np_chain_parse_counts.json", make_np_table(lexicon))]
    for name, table in tables:
        path = workloads.BENCH_DATA / name
        path.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
