#!/usr/bin/env python3
"""A/B pairs of benchmark runs for a speed claim.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload np_chain \
        --pairs 10 --seed 1

Each pair runs `bench/run.py --seconds 20 --trace 0` once in each
checkout, each in a fresh process started in that checkout, so each side
imports its own `src/`.  The side that goes first alternates from pair
to pair.  The last line a run prints is its JSON result.

For every end-to-end metric in CHANGE_DIR's BENCHMARK.json the script
prints both sides' median and quartiles (`statistics.quantiles(n=4)`,
as `bench/spread.py` uses) and how many pairs the change won.  A claimed
gain holds when the change wins at least nine pairs in ten (with at
least ten pairs) and the medians differ, in the better direction, by
more than the parent's interquartile range.  A metric whose values are
all equal has no winner.  The script edits nothing in either checkout
except what `bench/run.py` itself writes under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

SECONDS = "20"


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def run_once(checkout: pathlib.Path, workload: str, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py failed in {checkout} "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str) -> tuple[int, str]:
    """Wins of the change over its pairs, and whether the gain holds."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gap = sign * (cm - pm)
    n = len(parent)
    if n < 10:
        return wins, "needs at least 10 pairs"
    holds = wins >= math.ceil(0.9 * n) and gap > p3 - p1
    return wins, "holds" if holds else "does not hold"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    ap.add_argument("change", type=pathlib.Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs <= 0:
        ap.error("--pairs must be positive")
    parent, change = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            runs[side].append(run_once(checkout, args.workload, args.seed))
        line = "  ".join(f"{side} {value(runs[side][-1], 'goodput_per_s'):.3f}"
                         f"{'' if runs[side][-1]['correct'] else ' (NOT CORRECT)'}"
                         for side, _ in order)
        print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): goodput {line}",
              flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"(median [q1, q3]; wins of the change)")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        p = [value(r, name) for r in runs["parent"]]
        c = [value(r, name) for r in runs["change"]]
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        if len(set(p + c)) == 1:
            wins, rule = 0, "no difference"
        else:
            wins, rule = verdict(p, c, better)
        print(f"  {name:16s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
              f"wins {wins}/{args.pairs} ({better} is better): {rule}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"  {side}: {failed} of {attempted} items failed; "
              f"{wrong} runs not correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
