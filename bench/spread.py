#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 bench/spread.py

Runs bench/run.py --trace 0 for run_seconds (from BENCHMARK.json) once
per seed 1..10 on each workload and writes to bench/results/spread.json,
per workload and metric, the values, their min, median and max, and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.  It takes about a quarter of an
hour.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    summary = {"runs": RUNS, "seconds": seconds, "python": sys.version.split()[0],
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900,
                                  check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: correct is false", file=sys.stderr)
                return 1
            for metric, row in result["metrics"].items():
                values.setdefault(metric, []).append(row["value"])
        rows = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"min": min(vals), "median": median, "max": max(vals),
                            "spread": (q3 - q1) / median, "bound": bounds[metric],
                            "values": vals}
            print(f"{name:14s} {metric:15s} median {median:<12.6g} "
                  f"spread {rows[metric]['spread']:.4f} (bound {bounds[metric]})", flush=True)
        summary["workloads"][name] = rows

    out = BENCH / "results" / "spread.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
