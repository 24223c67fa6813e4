"""Per-layer trace recorded from outside the package.

`Tracer.install` replaces each public function at the name its caller
looks it up by (for example `lambeksem.composer.substitute_lexical`,
which `analyze` calls through its module globals) with a wrapper that
records a span: name, start, end, parent span and item id.  Spans stay
in memory, in flat arrays, until the run ends.  Counters (proofs found,
mismatch sites, term sizes) are taken in the same wrappers; the time
spent counting is taken off the tracer's clock, so no span includes it.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

import lambeksem.cli
import lambeksem.composer
import lambeksem.hol
import lambeksem.prover
from lambeksem import BETA, Abs, App

# Metric name -> unit, in report order.  Times and counts are per item.
PER_ITEM = "count/item"
METRICS = {
    "lexicon.load_lexicon_file.time_s": "s/item",
    "lexicon.phrase_coercions.time_s": "s/item",
    "prover.enumerate_parses.calls": PER_ITEM,
    "prover.enumerate_parses.self_s": "s/item",
    "prover.prove.calls": PER_ITEM,
    "prover.prove.time_s": "s/item",
    "prover.prove.proofs": PER_ITEM,
    "prover.prove.yield": "ratio",
    "prover.extract_term.calls": PER_ITEM,
    "prover.extract_term.time_s": "s/item",
    "prover.parse_yield": "ratio",
    "terms.normalize.beta.calls": PER_ITEM,
    "terms.normalize.beta.time_s": "s/item",
    "terms.normalize.eta_long.calls": PER_ITEM,
    "terms.normalize.eta_long.time_s": "s/item",
    "terms.canonicalize.time_s": "s/item",
    "terms.canonical_key.time_s": "s/item",
    "terms.type_of.time_s": "s/item",
    "terms.nodes.substituted": "nodes/item",
    "terms.nodes.normal": "nodes/item",
    "composer.analyze.calls": PER_ITEM,
    "composer.analyze.self_s": "s/item",
    "composer.analyze.parses": PER_ITEM,
    "composer.analyze.readings": PER_ITEM,
    "composer.substitute_lexical.calls": PER_ITEM,
    "composer.substitute_lexical.time_s": "s/item",
    "composer.resolve_coercions.calls": PER_ITEM,
    "composer.resolve_coercions.time_s": "s/item",
    "composer.resolve_coercions.repairs": PER_ITEM,
    "composer.find_mismatches.sites": PER_ITEM,
    "composer.find_mismatches.fatal": PER_ITEM,
    "composer.repair_yield": "ratio",
    "composer.reading_yield": "ratio",
    "hol.to_formula.time_s": "s/item",
    "hol.render.time_s": "s/item",
    "hol.formula_tree.time_s": "s/item",
    "cli.run.self_s": "s/item",
    "cli.output_bytes": "B/item",
    "trace.overhead_frac": "ratio",
}


def node_count(term) -> int:
    count, stack = 0, [term]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, App):
            stack.append(t.fn)
            stack.append(t.arg)
        elif isinstance(t, Abs):
            stack.append(t.body)
    return count


def _normalize_span(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", BETA)
    return "terms.normalize.beta" if mode == BETA else "terms.normalize.eta_long"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.current_item = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span, post=None):
        fixed = None if callable(span) else self._name_id(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fixed if fixed is not None
                             else self._name_id(span(args, kwargs)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            if post is not None and self.current_item >= 0:
                t0 = time.perf_counter()
                post(self, idx, args, result)
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        cli, composer, hol, prover = (lambeksem.cli, lambeksem.composer,
                                      lambeksem.hol, lambeksem.prover)
        wraps = [
            (cli, "run", "cli.run", _post_cli_run),
            (cli, "load_lexicon_file", "lexicon.load_lexicon_file", None),
            (cli, "analyze", "composer.analyze", _post_analyze),
            (cli, "to_formula", "hol.to_formula", None),
            (cli, "render", "hol.render", None),
            (cli, "formula_tree", "hol.formula_tree", None),
            (hol, "to_formula", "hol.to_formula", None),
            (hol, "render", "hol.render", None),
            (composer, "analyze", "composer.analyze", _post_analyze),
            (composer, "enumerate_parses", "prover.enumerate_parses", _post_enumerate),
            (composer, "phrase_coercions", "lexicon.phrase_coercions", None),
            (composer, "substitute_lexical", "composer.substitute_lexical", _post_substitute),
            (composer, "resolve_coercions", "composer.resolve_coercions", _post_resolve),
            (composer, "find_mismatches", "composer.find_mismatches", _post_mismatches),
            (composer, "normalize", _normalize_span, _post_normalize),
            (composer, "type_of", "terms.type_of", None),
            (composer, "canonicalize", "terms.canonicalize", None),
            (composer, "canonical_key", "terms.canonical_key", None),
            (prover, "prove", "prover.prove", _post_prove),
            (prover, "extract_term", "prover.extract_term", None),
            (prover, "normalize", _normalize_span, None),
            (prover, "canonical_key", "terms.canonical_key", None),
        ]
        for module, attr, span, post in wraps:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, post))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name over item spans: calls, inclusive and self time."""
        child_time = defaultdict(float)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(len(self.start)):
            if self.item[i] < 0:
                continue
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["time_s"] += duration
            row["self_s"] += duration - child_time[i]
        return out

    def metrics(self, items: int, overhead_frac: float) -> dict[str, float]:
        totals = self.totals()
        c = self.counters

        def span(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0) / items

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values: dict[str, float] = {}
        for metric in METRICS:
            name, _, field = metric.rpartition(".")
            if field in ("calls", "time_s", "self_s"):
                values[metric] = span(name, field)
        prove_calls = totals.get("prover.prove", {}).get("calls", 0)
        resolve_calls = totals.get("composer.resolve_coercions", {}).get("calls", 0)
        values.update({
            "prover.prove.proofs": c["proofs"] / items,
            "prover.prove.yield": ratio(c["proving_calls"], prove_calls),
            "prover.parse_yield": ratio(c["parses_kept"], c["proofs_in_parses"]),
            "terms.nodes.substituted": c["nodes_substituted"] / items,
            "terms.nodes.normal": c["nodes_normal"] / items,
            "composer.analyze.parses": c["parses"] / items,
            "composer.analyze.readings": c["readings"] / items,
            "composer.resolve_coercions.repairs": c["repairs"] / items,
            "composer.find_mismatches.sites": c["sites"] / items,
            "composer.find_mismatches.fatal": c["fatal"] / items,
            "composer.repair_yield": ratio(c["repaired_parses"], resolve_calls),
            "composer.reading_yield": ratio(c["readings"], c["repairs"]),
            "cli.output_bytes": c["output_bytes"] / items,
            "trace.overhead_frac": overhead_frac,
        })
        return {m: values[m] for m in METRICS}

    def write_spans(self, path) -> None:
        """One line per span: id, name, item, parent, start, end (s)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\titem\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.item[i]}\t"
                         f"{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


# -- counters, taken after the span has closed ------------------------------

def _parent_name(tracer: Tracer, idx: int) -> str | None:
    p = tracer.parent[idx]
    return tracer.names[tracer.name[p]] if p >= 0 else None


def _post_prove(tracer, idx, args, proofs) -> None:
    c = tracer.counters
    c["proofs"] += len(proofs)
    c["proving_calls"] += bool(proofs)
    if _parent_name(tracer, idx) == "prover.enumerate_parses":
        c["proofs_in_parses"] += len(proofs)


def _post_enumerate(tracer, idx, args, parses) -> None:
    tracer.counters["parses_kept"] += len(parses)


def _post_analyze(tracer, idx, args, result) -> None:
    tracer.counters["parses"] += result.parse_count
    tracer.counters["readings"] += len(result.readings)


def _post_substitute(tracer, idx, args, term) -> None:
    tracer.counters["nodes_substituted"] += node_count(term)


def _post_resolve(tracer, idx, args, repairs) -> None:
    tracer.counters["repairs"] += len(repairs)
    tracer.counters["repaired_parses"] += bool(repairs)


def _post_mismatches(tracer, idx, args, sites) -> None:
    tracer.counters["sites"] += len(sites)
    tracer.counters["fatal"] += sum(s.fatal for s in sites)


def _post_normalize(tracer, idx, args, term) -> None:
    if tracer.names[tracer.name[idx]] == "terms.normalize.beta":
        tracer.counters["nodes_normal"] += node_count(term)


def _post_cli_run(tracer, idx, args, result) -> None:
    tracer.counters["output_bytes"] += len(result[1].encode("utf-8"))
