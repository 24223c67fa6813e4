"""Inputs and reference checks for the four benchmark workloads.

Every workload is a fixed *round* of items.  A run repeats the round, in
a fresh seeded order each time, until its time is up; it only stops at
the end of a round, so every run sees the same mix of inputs and a
counter divided by the item count repeats exactly.  The seed picks the
order and the cost-neutral word choices (the/this, heavy/interesting);
the mix of costly shapes is fixed, because a seed that drew a different
share of slow sentences would move every figure by more than the bounds.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
from dataclasses import dataclass

import lambeksem.cli
import lambeksem.composer
import lambeksem.hol
import lambeksem.prover
from lambeksem import (Atom, category_to_text, load_lexicon_file,
                       parse_category)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DATA = pathlib.Path(__file__).resolve().parent / "data"
LEXICON_PATH = "data/demo_lexicon.json"
CORPUS_PATH = "data/golden_corpus.json"

OK = "OK"
PBNS = "PARSE_BUT_NO_SORTING"


@dataclass(frozen=True, slots=True)
class Item:
    """One unit of work.  `key` identifies the input (`Workload.describe`
    names it in reports); `expect` is what its reference check compares
    against."""
    key: str
    payload: object
    expect: object


# ---------------------------------------------------------------------------
# np_chain: every representative (of D company)^m saw Q samples

NP_Q_CLASSES = ("a", "most", "det")


def np_patterns() -> list[tuple[str, ...]]:
    """The a/det masks of the round: every mask for m <= 3, and the masks
    with at most one "a" for m = 4.  A fourth-level chain with two or
    more "a" costs 0.5-4.7 s, which would leave too few items a run."""
    out = []
    for m in range(1, 5):
        for mask in itertools.product(("det", "a"), repeat=m):
            if m < 4 or mask.count("a") <= 1:
                out.append(mask)
    return out


def np_round_shapes() -> list[tuple[tuple[str, ...], str]]:
    # Q classes rotate over the mask list; the rotation gives the all-"a"
    # m=3 chain Q=most, which is the baseline sentence of the roadmap.
    return [(mask, NP_Q_CLASSES[j % 3]) for j, mask in enumerate(np_patterns())]


def np_sentence(mask: tuple[str, ...], q: str, det=lambda: "the") -> str:
    ds = ["a" if d == "a" else det() for d in mask]
    qw = det() if q == "det" else q
    return ("every representative "
            + " ".join(f"of {d} company" for d in ds)
            + f" saw {qw} samples")


def np_reference_key(sentence: str) -> str:
    """"the" and "this" share their only category, so they share counts."""
    return " ".join("the" if w == "this" else w for w in sentence.split())


def np_items(rng: random.Random) -> list[Item]:
    counts = json.loads((BENCH_DATA / "np_chain_parse_counts.json").read_text())
    det = lambda: rng.choice(("the", "this"))
    items = []
    for mask, q in np_round_shapes():
        sentence = np_sentence(mask, q, det)
        items.append(Item(sentence, tuple(sentence.split()),
                          (OK, counts["parse_counts"][np_reference_key(sentence)])))
    return items


# ---------------------------------------------------------------------------
# coord_chain: k-conjunct coordinations, k = 2..6

ATTACKED = "attacked Iraq"
BORDERS = "borders the Potomac"


def coord_items(rng: random.Random) -> list[Item]:
    """Per k: the dog and sergeant chains, an adjective chain, and three
    Washington chains (all "attacked", all "borders", and criterion 4's
    "borders ... and attacked ..." extended).  Only the mixed Washington
    chain is expected PARSE_BUT_NO_SORTING: `as_place` is rigid."""
    items = []
    for k in range(2, 7):
        adjs = [rng.choice(("heavy", "interesting")) for _ in range(k)]
        chains = [
            ("the dog barked" + " and barked" * (k - 1), OK),
            ("the sergeant barked" + " and barked" * (k - 1), OK),
            ("this book is " + " and ".join(adjs), OK),
            ("Washington " + " and ".join([ATTACKED] * k), OK),
            ("Washington " + " and ".join([BORDERS] * k), OK),
            ("Washington " + " and ".join([BORDERS] + [ATTACKED] * (k - 1)), PBNS),
        ]
        for sentence, outcome in chains:
            items.append(Item(sentence, tuple(sentence.split()), (outcome, None)))
    return items


# ---------------------------------------------------------------------------
# golden_cli: the golden corpus through cli.run

def golden_corpus() -> dict:
    return json.loads((ROOT / CORPUS_PATH).read_text())


def golden_items(rng: random.Random) -> list[Item]:
    corpus = golden_corpus()
    sentences = [e["sentence"] for e in corpus["sentences"]]
    rng.shuffle(sentences)
    return [Item("golden corpus (shuffled)", tuple(sentences), corpus)]


# ---------------------------------------------------------------------------
# sequent_sweep: every balanced sequent of <= 6 demo-lexicon categories

def distinct_categories(lexicon) -> list:
    seen = {}
    for entry in lexicon.entries:
        for sense in entry.senses:
            seen.setdefault(category_to_text(sense.category), sense.category)
    return [seen[k] for k in sorted(seen)]


def count_vector(cat) -> dict[str, int]:
    """van Benthem count: val(a) = unit a, val(A\\B) = val(B/A) = val(B) - val(A)."""
    acc: dict[str, int] = {}

    def walk(c, sign: int) -> None:
        while not isinstance(c, Atom):
            walk(c.argument, -sign)
            c = c.result
        acc[c.name] = acc.get(c.name, 0) + sign

    walk(cat, 1)
    return acc


def _multiset_orders(counts: list[int], length: int):
    """Distinct orderings of a multiset given as per-index counts."""
    if length == 0:
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            counts[i] -= 1
            for rest in _multiset_orders(counts, length - 1):
                yield (i,) + rest
            counts[i] += 1


def balanced_sequences(cats: list, goal, max_length: int = 6) -> list[tuple[int, ...]]:
    """Index sequences over `cats` whose count vector equals the goal's.

    Balance depends only on the multiset, so this walks the multisets
    (27,131 for 13 categories and length <= 6) and expands the balanced
    ones into their distinct orderings, instead of testing all
    5,229,042 sequences.  Sorted by length, then index order, like the
    brute-force enumeration."""
    vectors = [count_vector(c) for c in cats]
    target = {k: v for k, v in count_vector(goal).items() if v}
    out = []
    for length in range(1, max_length + 1):
        found = []
        for combo in itertools.combinations_with_replacement(range(len(cats)), length):
            acc: dict[str, int] = {}
            for i in combo:
                for name, k in vectors[i].items():
                    acc[name] = acc.get(name, 0) + k
            if {k: v for k, v in acc.items() if v} != target:
                continue
            counts = [combo.count(i) for i in range(len(cats))]
            found.extend(_multiset_orders(counts, length))
        found.sort()
        out.extend(found)
    return out


def sweep_items(rng: random.Random, cats: list, goal) -> list[Item]:
    """One item per balanced sequent.  Its category tuple is both key and
    payload, so the inputs add little to the process's memory; names are
    made only for reports."""
    ref = json.loads((BENCH_DATA / "sequent_sweep_proof_counts.json").read_text())
    index = {category_to_text(c): i for i, c in enumerate(cats)}
    derivable = {tuple(index[t] for t in row["sequent"]): row["proofs"]
                 for row in ref["derivable"]}
    items = []
    for seq in balanced_sequences(cats, goal):
        sequent = tuple(cats[i] for i in seq)
        items.append(Item(sequent, sequent, derivable.get(seq, 0)))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# execution and reference checks
#
# Each workload calls the package through module attributes, so that the
# tracer's wrappers, installed on those attributes, see the calls.

class Workload:
    """`execute` does one item's work and returns what the check needs;
    `check` returns None or a one-line failure; `summary` is the part of
    the result that must not depend on tracing."""
    name = ""

    def __init__(self, lexicon) -> None:
        self.lexicon = lexicon

    def items(self, rng: random.Random) -> list[Item]:
        raise NotImplementedError

    def execute(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, observed) -> str | None:
        raise NotImplementedError

    def summary(self, observed):
        return observed

    def describe(self, key) -> str:
        return key

    def known_defect(self, item: Item, failure: str) -> str | None:
        """The catalogued defect this failure is an instance of, if any.
        Known failures still count in `failed`; any other makes the run
        incorrect."""
        return None


class SentenceWorkload(Workload):
    def execute(self, item: Item):
        result = lambeksem.composer.analyze(item.payload, self.lexicon)
        hol = lambeksem.hol
        for reading in result.readings:
            hol.render(hol.to_formula(reading.formula_term))
        return result

    def summary(self, result):
        return (result.outcome, result.parse_count, len(result.readings))

    def check(self, item: Item, result) -> str | None:
        outcome, parse_count = item.expect
        if result.outcome != outcome:
            return f"outcome {result.outcome}, expected {outcome}"
        if parse_count is not None and result.parse_count != parse_count:
            return f"parse_count {result.parse_count}, expected {parse_count}"
        return None


class NpChain(SentenceWorkload):
    name = "np_chain"

    def items(self, rng):
        return np_items(rng)

    def known_defect(self, item, failure):
        if failure == "NonLogicalHead":
            return ("to_formula cannot render the/this applied to a complex "
                    "noun (an abstraction argument); cli.run raises on these")
        return None


class CoordChain(SentenceWorkload):
    name = "coord_chain"

    def items(self, rng):
        return coord_items(rng)

    def known_defect(self, item, failure):
        conjuncts = item.key.count(" and ") + 1
        if failure == f"outcome {PBNS}, expected {OK}" and conjuncts >= 3:
            return ("coordinations of three or more conjuncts come out "
                    "PARSE_BUT_NO_SORTING (roadmap open item 3)")
        if failure == "SearchLimitExceeded" and conjuncts >= 5:
            return ("the 10**6-state budget, counted per sense assignment, "
                    "runs out on long Washington chains")
        return None


class GoldenCli(Workload):
    name = "golden_cli"
    EXIT_STATUS = 2

    def __init__(self, lexicon) -> None:
        super().__init__(lexicon)
        self.lexicon_path = str(ROOT / LEXICON_PATH)
        # The CLI's JSON has no parse_count, so the corpus parse counts are
        # checked once per run, outside the timed loop.
        self.setup_problem = None
        for entry in golden_corpus()["sentences"]:
            result = lambeksem.composer.analyze(entry["sentence"].split(), lexicon)
            if result.parse_count != entry["parse_count"]:
                self.setup_problem = (f"{entry['sentence']}: parse_count "
                                      f"{result.parse_count}, expected "
                                      f"{entry['parse_count']}")
                break

    def items(self, rng):
        return golden_items(rng)

    def execute(self, item):
        config = lambeksem.cli.RunConfig(self.lexicon_path, item.payload,
                                         output_format="json")
        return lambeksem.cli.run(config)

    def summary(self, observed):
        status, document = observed
        records = json.loads(document)["sentences"]
        return (status, tuple(sorted((r["sentence"], r["outcome"], len(r["readings"]))
                                     for r in records)))

    def check(self, item, observed) -> str | None:
        if self.setup_problem:
            return self.setup_problem
        status, document = observed
        if status != self.EXIT_STATUS:
            return f"exit status {status}, expected {self.EXIT_STATUS}"
        records = {r["sentence"]: r for r in json.loads(document)["sentences"]}
        for entry in item.expect["sentences"]:
            record = records.get(entry["sentence"])
            if record is None:
                return f"{entry['sentence']}: missing from output"
            if record["outcome"] != entry["outcome"]:
                return f"{entry['sentence']}: outcome {record['outcome']}"
            got = [(r["formula_unicode"],
                    [[c["name"], c["source"], c["target"]] for c in r["coercions"]])
                   for r in record["readings"]]
            want = [(r["formula_unicode"], r["coercions"]) for r in entry["readings"]]
            if got != want:
                return f"{entry['sentence']}: readings differ from the corpus"
        return None


class SequentSweep(Workload):
    name = "sequent_sweep"

    def __init__(self, lexicon) -> None:
        super().__init__(lexicon)
        self.cats = distinct_categories(lexicon)
        self.goal = parse_category("S", lexicon.bases)

    def items(self, rng):
        return sweep_items(rng, self.cats, self.goal)

    def describe(self, key) -> str:
        return " , ".join(category_to_text(c) for c in key)

    def execute(self, item):
        return len(lambeksem.prover.prove(item.payload, self.goal))

    def check(self, item, proofs) -> str | None:
        if proofs != item.expect:
            return f"{proofs} proofs, expected {item.expect}"
        return None


WORKLOADS = {w.name: w for w in (GoldenCli, NpChain, CoordChain, SequentSweep)}


def load_demo_lexicon():
    lexicon, _ = load_lexicon_file(str(ROOT / LEXICON_PATH))
    return lexicon
