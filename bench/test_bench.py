"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The brute-force comparison enumerates all 5,229,042 sequences, so the
file takes about a minute.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

from lambeksem import parse_category  # noqa: E402
from seqoracle import balanced  # noqa: E402

import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lexicon():
    return workloads.load_demo_lexicon()


def test_balanced_sequences_equal_brute_force_set(lexicon):
    cats = workloads.distinct_categories(lexicon)
    goal = parse_category("S", lexicon.bases)
    brute = [combo
             for length in range(1, 7)
             for combo in itertools.product(range(len(cats)), repeat=length)
             if balanced(tuple(cats[i] for i in combo), goal)]
    fast = workloads.balanced_sequences(cats, goal)
    assert len(fast) == len(set(fast)) == 21_415
    assert fast == brute


def test_sweep_reference_matches_oracle(lexicon):
    stored = json.loads((workloads.BENCH_DATA / "sequent_sweep_proof_counts.json").read_text())
    fresh = make_reference.make_sweep_table(lexicon)
    assert fresh == stored
    assert len(stored["derivable"]) == 54
    assert sum(row["proofs"] for row in stored["derivable"]) == 57


def test_np_parse_counts_rederived_by_oracle_up_to_m2(lexicon):
    table = json.loads((workloads.BENCH_DATA / "np_chain_parse_counts.json").read_text())
    counts = table["parse_counts"]
    short = [s for s in counts if s.count(" of ") <= 2]
    assert len(short) == 7
    for sentence in short:
        assert make_reference.oracle_parse_count(lexicon, sentence) == counts[sentence], sentence


def test_np_table_covers_every_round_input(lexicon):
    counts = json.loads((workloads.BENCH_DATA / "np_chain_parse_counts.json").read_text())
    for mask, q in workloads.np_round_shapes():
        for det in ("the", "this"):
            sentence = workloads.np_sentence(mask, q, lambda: det)
            assert workloads.np_reference_key(sentence) in counts["parse_counts"]
    chain = "every representative of a company of a company of a company saw most samples"
    assert chain in {workloads.np_sentence(m, q) for m, q in workloads.np_round_shapes()}
    all_a = [counts["parse_counts"][workloads.np_sentence(("a",) * m, "most")]
             for m in range(1, 5)]
    assert all_a == [2, 8, 44, 280]


def test_items_depend_only_on_seed(lexicon):
    for name, cls in workloads.WORKLOADS.items():
        a = cls(lexicon).items(random.Random(7))
        b = cls(lexicon).items(random.Random(7))
        assert a == b, name


def test_golden_check_rejects_a_changed_reading(lexicon):
    workload = workloads.GoldenCli(lexicon)
    item, = workload.items(random.Random(1))
    status, document = workload.execute(item)
    assert workload.check(item, (status, document)) is None
    doc = json.loads(document)
    doc["sentences"][0]["readings"] = doc["sentences"][0]["readings"][:-1]
    assert workload.check(item, (status, json.dumps(doc))) is not None
    assert workload.check(item, (0, document)) is not None


def _counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if tracing.METRICS[k] != "s/item" and k != "trace.overhead_frac"}


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_counters_repeat_and_tracing_changes_no_result(lexicon, name, tmp_path):
    runs = []
    for attempt in range(2):
        workload = workloads.WORKLOADS[name](lexicon)
        rng = random.Random(3)
        items = workload.items(rng)
        metrics, m, extra = run.traced(workload, items, 0.01, rng,
                                       tmp_path / f"spans{attempt}.tsv.gz")
        assert extra["traced_untraced_drift"] == []
        assert set(metrics) == set(tracing.METRICS)
        runs.append(_counters(metrics))
    assert runs[0] == runs[1]


def test_tracer_removes_every_wrapper(lexicon):
    import lambeksem.composer
    import lambeksem.prover
    before = (lambeksem.composer.substitute_lexical, lambeksem.prover.prove)
    tracer = tracing.Tracer()
    tracer.install()
    assert lambeksem.prover.prove is not before[1]
    tracer.remove()
    assert (lambeksem.composer.substitute_lexical, lambeksem.prover.prove) == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "golden_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
