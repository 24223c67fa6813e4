#!/usr/bin/env python3
"""Benchmark of the lambeksem compiler.

    python3 bench/run.py --workload np_chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The load is one closed loop: a single caller in a single process sends
the next item only after the last one returns, as a CLI batch or a
library caller does.  Workloads are described in bench/README.md.

With --trace 0 the run reports the end-to-end metrics:

  setup_s         median over fresh processes of `import lambeksem` plus
                  loading the demo lexicon
  goodput_per_s   items that pass their reference check per second of
                  timed item time
  latency_p50_ms  nearest-rank percentiles of the time per item, over all
  latency_p90_ms  items (see README.md for how failed items are shown)
  pass_frac       items passing their reference check / items attempted
  peak_rss_mib    peak resident memory of this process (ru_maxrss)

With --trace 1 it runs the same loop twice, untraced and then traced,
and reports per-layer metrics from the traced half plus the tracing
overhead.  The last line of standard output is one JSON object; the
lines before it are the human-readable report.  Full results, and with
--trace 1 the spans, are written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REQUIRED = ("src/lambeksem/__init__.py", "data/demo_lexicon.json",
            "data/golden_corpus.json")
NAMES = ("golden_cli", "np_chain", "coord_chain", "sequent_sweep")

MIN_ITEMS = 100       # so that ten items lie beyond p90
PER_INPUT_MAX = 100   # rounds up to this size keep per-input times
SETUP_RUNS = 7        # fresh processes timed for setup_s, after one warm-up
RESERVOIR = 1 << 16   # latency samples kept; memory must not grow with speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_frac": "ratio",
    "peak_rss_mib": "MiB",
}


@dataclass
class Measurement:
    items: int = 0
    passed: int = 0
    busy_s: float = 0.0
    rounds: int = 0
    latency: array = field(default_factory=lambda: array("d"))
    ok: array = field(default_factory=lambda: array("b"))
    failures: dict = field(default_factory=dict)    # input name -> failure record
    observed: dict = field(default_factory=dict)    # key -> summary
    per_key: dict = field(default_factory=lambda: defaultdict(list))
    rss_before_loop_mib: float = 0.0

    @property
    def goodput(self) -> float:
        return self.passed / self.busy_s

    def percentile(self, q: float) -> tuple[float, bool]:
        """Nearest-rank percentile of the time per item, and whether the
        item at that rank fails when failed items rank above every
        passing one.

        When a round holds a few dozen distinct inputs, each run repeats
        every input equally often, so the percentile is taken over the
        inputs, each timed by the median of its repetitions: a rank that
        falls between two inputs then reads a median, not the slowest
        repetition.  Otherwise it is taken over the sampled items."""
        if len(self.per_key) > 1:
            times = [statistics.median(t) for t in self.per_key.values()]
            passing = len(self.per_key) - len(self.failures)
        else:
            times = list(self.latency)
            passing = sum(self.ok)
        rank = max(1, math.ceil(q * len(times)))
        return sorted(times)[rank - 1], rank > passing


def measure(workload, items, seconds: float, rng: random.Random,
            min_items: int, tracer=None, observe: bool = False) -> Measurement:
    """Repeat the round of items, reshuffled, until `seconds` have passed
    and `min_items` items are done; only whole rounds are run.  With
    `observe`, or on a round small enough to keep per-input times, the
    summary of each input's first result is kept."""
    m = Measurement()
    sampler = random.Random(rng.random())
    # Set-up objects (lexicon, inputs, reference data) belong to the
    # benchmark; frozen, they add nothing to the collections the measured
    # work triggers.
    gc.collect()
    gc.freeze()
    keep_per_key = len(items) <= PER_INPUT_MAX
    observe = observe or keep_per_key
    m.rss_before_loop_mib = peak_rss_mib()
    deadline = time.perf_counter() + seconds
    while m.rounds == 0 or time.perf_counter() < deadline or m.items < min_items:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            if tracer is not None:
                tracer.current_item = m.items
            start = time.perf_counter()
            try:
                observed = workload.execute(item)
            except Exception as exc:  # one item's fault must not end the run
                elapsed = time.perf_counter() - start
                failure = type(exc).__name__
                observed = None
                detail = traceback.format_exc(limit=-3)
            else:
                elapsed = time.perf_counter() - start
                failure = workload.check(item, observed)
                detail = None
            if tracer is not None:
                tracer.current_item = -1
            m.busy_s += elapsed
            if observe and item.key not in m.observed:
                m.observed[item.key] = (failure if observed is None
                                        else workload.summary(observed))
            if failure is None:
                m.passed += 1
            else:
                name = workload.describe(item.key)
                if name not in m.failures:
                    m.failures[name] = {
                        "failure": failure, "count": 0, "detail": detail,
                        "known_defect": workload.known_defect(item, failure)}
                m.failures[name]["count"] += 1
            if keep_per_key:
                m.per_key[item.key].append(elapsed)
            if m.items < RESERVOIR:
                m.latency.append(elapsed)
                m.ok.append(failure is None)
            else:
                j = sampler.randrange(m.items + 1)
                if j < RESERVOIR:
                    m.latency[j] = elapsed
                    m.ok[j] = failure is None
            m.items += 1
        m.rounds += 1
    return m


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup() -> list[float]:
    """Import-plus-load times of fresh interpreters, warm-up dropped."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        imported, loaded = map(float, done.stdout.split())
        times.append(imported + loaded)
    return times[1:]


def failure_report(m: Measurement) -> list[dict]:
    return [{"input": key, **record} for key, record in sorted(m.failures.items())]


def end_to_end(workload, items, seconds: float, rng) -> tuple[dict, Measurement, dict]:
    setup_times = measure_setup()
    for item in items[:3]:      # warm-up, untimed; failures count in the loop below
        try:
            workload.execute(item)
        except Exception:
            pass
    m = measure(workload, items, seconds, rng, MIN_ITEMS)
    p50, p50_failed = m.percentile(0.5)
    p90, p90_failed = m.percentile(0.9)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "goodput_per_s": m.goodput,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "pass_frac": m.passed / m.items,
        "peak_rss_mib": peak_rss_mib(),
    }
    extra = {"setup_s_runs": setup_times,
             "percentile_lands_on_failed": {"latency_p50_ms": p50_failed,
                                            "latency_p90_ms": p90_failed}}
    return metrics, m, extra


def traced(workload, items, seconds: float, rng, spans_path) -> tuple[dict, Measurement, dict]:
    from tracing import Tracer

    untraced = measure(workload, items, seconds / 2, rng, 1, observe=True)
    tracer = Tracer()
    tracer.install()
    try:
        m = measure(workload, items, seconds / 2, rng, 1, tracer, observe=True)
    finally:
        tracer.remove()
    overhead = 1 - m.goodput / untraced.goodput if untraced.passed else 0.0
    metrics = tracer.metrics(m.items, overhead)
    drift = sorted(workload.describe(k) for k in m.observed
                   if k in untraced.observed and m.observed[k] != untraced.observed[k])
    tracer.write_spans(spans_path)
    root = {"golden_cli": "cli.run", "sequent_sweep": "prover.prove"}.get(
        workload.name, "composer.analyze")
    totals = tracer.totals()
    root_time = totals.get(root, {}).get("time_s", 0.0)
    shares = {name: row["time_s"] / root_time
              for name, row in sorted(totals.items()) if root_time}
    extra = {"untraced_goodput_per_s": untraced.goodput,
             "traced_goodput_per_s": m.goodput,
             "traced_untraced_drift": drift,
             "share_of_" + root: shares,
             "spans": len(tracer.start)}
    return metrics, m, extra


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    rng = random.Random(seed)
    lexicon = workloads.load_demo_lexicon()
    rss_after_load = peak_rss_mib()
    workload = workloads.WORKLOADS[name](lexicon)
    items = workload.items(rng)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, m, extra = traced(workload, items, seconds, rng,
                                   OUT / f"{stem}.spans.tsv.gz")
        from tracing import METRICS as units
    else:
        metrics, m, extra = end_to_end(workload, items, seconds, rng)
        units = END_TO_END_UNITS
        # How much of peak_rss_mib the benchmark's own inputs and
        # set-up account for: the high-water mark after the lexicon has
        # loaded, and again just before the timed loop.
        extra["peak_rss_mib_after_load"] = rss_after_load
        extra["peak_rss_mib_before_loop"] = m.rss_before_loop_mib
    unknown = [r for r in failure_report(m) if r["known_defect"] is None]
    correct = not unknown and not extra.get("traced_untraced_drift")
    result = {"correct": correct, "attempted": m.items,
              "failed": m.items - m.passed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {m.items} items "
          f"in {m.rounds} rounds of {len(items)}, {m.busy_s:.2f} s timed")
    flags = extra.get("percentile_lands_on_failed", {})
    for key, metric in result["metrics"].items():
        note = "  (failed: lands on a failed item)" if flags.get(key) else ""
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}{note}")
    if not trace:
        print(f"  peak_rss_mib {rss_after_load:.1f} after load, "
              f"{m.rss_before_loop_mib:.1f} before the timed loop")
    print(f"  fail_frac {1 - m.passed / m.items:.4f} ({m.items - m.passed} of {m.items})")
    for record in failure_report(m):
        label = record["known_defect"] or "NOT A KNOWN DEFECT"
        print(f"  FAIL x{record['count']} {record['input']}: {record['failure']} [{label}]")
    if extra.get("traced_untraced_drift"):
        print(f"  traced and untraced results differ on: {extra['traced_untraced_drift']}")

    per_input = {key: {"summary": m.observed[key], "runs": len(times),
                       "median_ms": statistics.median(times) * 1e3}
                 for key, times in sorted(m.per_key.items())}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "python": sys.version.split()[0],
              "round_size": len(items), "rounds": m.rounds,
              "timed_s": m.busy_s, **result, **extra,
              "failures": failure_report(m), "per_input": per_input}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, ensure_ascii=False) + "\n")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak_rss_mib is its own."""
    results = {}
    for name in NAMES:
        done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lambeksem checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(ROOT / "src"))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
