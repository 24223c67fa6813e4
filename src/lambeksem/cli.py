"""Batch driver: lexicon in, readings and diagnostics out.

Exit status: 0 when every sentence is OK, 1 when any sentence fails to
parse, 2 when every failure is a sort failure (parse exists, no
admissible coercion assignment), 3 on input errors, including unknown
words, exhausted search budgets and input nested deeper than Python's
recursion limit allows.  Worse outcomes win: 3 over 1 over 2 over 0.  A
sentence that raises an error gets an ERROR record of its own; the
sentences after it are still analyzed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .categories import (Category, CategorySyntaxError, UnknownAtom, category_to_text,
                         parse_category, sem_type)
from .composer import (ComposeOptions, CompositionError, Reading,
                       SentenceAnalysis, analyze)
from .hol import (ASCII, UNICODE, NonLogicalHead, NotAProposition, formula_tree,
                  render, to_formula)
from .lexicon import LexiconError, UnknownWord, load_lexicon_file
from .metrics import grammar_stats, quantifier_count, reading_report
from .prover import SearchLimitExceeded
from .terms import T

ERROR = "ERROR"

_EXIT_SEVERITY = {0: 0, 2: 1, 1: 2, 3: 3}


@dataclass(frozen=True)
class RunConfig:
    lexicon_path: str
    sentences: tuple[str, ...]
    goal: str = "S"
    output_format: str = "text"
    coercions_enabled: bool = True
    lambek_restriction: bool = True
    max_readings: int | None = None
    budget: int = 10 ** 6
    stats_enabled: bool = False


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lambeksem",
        description="Compute the logical readings of sentences under a "
                    "categorial lexicon.")
    p.add_argument("--lexicon", required=True, help="lexicon JSON file")
    p.add_argument("--sentence", action="append", default=[],
                   help="sentence to analyze (repeatable)")
    p.add_argument("--input", help="file with one sentence per line")
    p.add_argument("--goal", default="S", help="goal category (default S)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-coercions", action="store_true",
                   help="disable mismatch repair")
    p.add_argument("--allow-empty-antecedent", action="store_true",
                   help="lift the non-empty-antecedent restriction")
    p.add_argument("--max-readings", type=int, default=None)
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="proof search state budget per sentence")
    p.add_argument("--stats", action="store_true",
                   help="emit grammar and reading statistics")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    sentences = list(args.sentence)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    sentences.append(line)
    if args.budget <= 0:
        raise ValueError("--budget must be positive")
    if args.max_readings is not None and args.max_readings <= 0:
        raise ValueError("--max-readings must be positive")
    return RunConfig(
        lexicon_path=args.lexicon,
        sentences=tuple(sentences),
        goal=args.goal,
        output_format=args.format,
        coercions_enabled=not args.no_coercions,
        lambek_restriction=not args.allow_empty_antecedent,
        max_readings=args.max_readings,
        budget=args.budget,
        stats_enabled=args.stats,
    )


def _reading_record(reading: Reading) -> dict:
    formula = to_formula(reading.formula_term)
    return {
        "formula_unicode": render(formula, UNICODE),
        "formula_ascii": render(formula, ASCII),
        "formula_tree": formula_tree(formula),
        "assignment": [category_to_text(c) for c in reading.parse.categories],
        "coercions": [{"name": c.name, "source": c.source.name,
                       "target": c.target.name, "rigid": c.rigid,
                       "owner": c.owner}
                      for c in reading.coercions_used()],
    }


def _sentence_record(sentence: str, lexicon, goal: Category,
                     config: RunConfig) -> tuple[dict, int]:
    words = sentence.split()
    options = ComposeOptions(
        coercions_enabled=config.coercions_enabled,
        lambek_restriction=config.lambek_restriction,
        budget=config.budget,
        max_readings=config.max_readings,
    )
    record: dict = {"sentence": sentence}
    try:
        result: SentenceAnalysis = analyze(words, lexicon, goal, options)
        readings = [_reading_record(r) for r in result.readings]
    except (UnknownWord, SearchLimitExceeded, CompositionError, NonLogicalHead,
            NotAProposition, RecursionError) as exc:
        # A fault in one sentence becomes its record; the batch goes on.
        record.update(outcome=ERROR, readings=[], error=str(exc))
        return record, 3
    record["outcome"] = result.outcome
    record["readings"] = readings
    if config.stats_enabled:
        report = reading_report(words, len(result.readings),
                                quantifier_count(lexicon, words))
        record["stats"] = report.as_record()
    status = {"OK": 0, "NO_PARSE": 1, "PARSE_BUT_NO_SORTING": 2}[result.outcome]
    return record, status


def run(config: RunConfig) -> tuple[int, str]:
    """Analyze every sentence; returns (exit status, output document)."""
    try:
        lexicon, _ = load_lexicon_file(config.lexicon_path)
    except FileNotFoundError as exc:
        return 3, f"error: cannot read lexicon: {exc}\n"
    except LexiconError as exc:
        return 3, f"error: invalid lexicon {config.lexicon_path}: {exc}\n"
    # The goal is the same for every sentence: a bad one is one error.
    try:
        goal = parse_category(config.goal, lexicon.bases)
    except (CategorySyntaxError, UnknownAtom) as exc:
        return 3, f"error: invalid goal {config.goal!r}: {exc}\n"
    if sem_type(goal, lexicon.bases) != T:
        return 3, (f"error: invalid goal {config.goal!r}: "
                   "goal category must denote a proposition\n")
    records = []
    worst = 0
    for sentence in config.sentences:
        record, status = _sentence_record(sentence, lexicon, goal, config)
        records.append(record)
        if _EXIT_SEVERITY[status] > _EXIT_SEVERITY[worst]:
            worst = status

    if config.output_format == "json":
        doc: dict = {"sentences": records}
        if config.stats_enabled:
            doc["grammar_stats"] = grammar_stats(lexicon).as_record()
        return worst, json.dumps(doc, ensure_ascii=False, indent=2,
                                 sort_keys=True) + "\n"

    lines: list[str] = []
    for record in records:
        lines.append(f"sentence: {record['sentence']}")
        lines.append(f"outcome: {record['outcome']}")
        if "error" in record:
            lines.append(f"error: {record['error']}")
        for i, r in enumerate(record["readings"], start=1):
            lines.append(f"  {i}. {r['formula_unicode']}")
            lines.append("     assignment: " + " ".join(r["assignment"]))
            if r["coercions"]:
                used = ", ".join(f"{c['name']}: {c['source']}->{c['target']}"
                                 f" ({c['owner']}{', rigid' if c['rigid'] else ''})"
                                 for c in r["coercions"])
                lines.append(f"     coercions: {used}")
        if "stats" in record:
            s = record["stats"]
            lines.append(f"  readings {s['observed']} of "
                         f"{s['valid_expectation']} expected "
                         f"({s['quantifier_count']} quantifiers, "
                         f"{s['factorial_expectation']} scope orders)")
        lines.append("")
    if config.stats_enabled:
        g = grammar_stats(lexicon).as_record()
        lines.append(f"grammar order: {g['max_order']}")
        lines.append(f"total senses: {g['total_senses']}")
        lines.append("")
    return worst, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    status, document = run(config)
    if status == 3 and document.startswith("error:"):
        sys.stderr.write(document)
    else:
        sys.stdout.write(document)
    return status


if __name__ == "__main__":
    sys.exit(main())
