import json
import pathlib

import jsonschema
import pytest

from lambeksem.cli import RunConfig, build_arg_parser, config_from_args, main, run

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
LEXICON = str(DATA / "demo_lexicon.json")

FLAGSHIP = "every kid watched a cartoon"
FLAGSHIP_UNICODE = "∃x. cartoon(x) ∧ ∀z. kid(z) ⇒ watched(z,x)"


def config(*sentences, **overrides):
    overrides.setdefault("output_format", "json")
    return RunConfig(lexicon_path=LEXICON, sentences=sentences, **overrides)


def run_json(*sentences, **overrides):
    status, document = run(config(*sentences, **overrides))
    return status, json.loads(document)


# ---------------------------------------------------------------------------
# exit codes


def test_ok_sentence_exits_zero():
    status, doc = run_json(FLAGSHIP)
    assert status == 0
    record = doc["sentences"][0]
    assert record["outcome"] == "OK"
    assert record["readings"][0]["formula_unicode"] == FLAGSHIP_UNICODE


def test_sort_failure_exits_two():
    status, doc = run_json("the table barked")
    assert status == 2
    assert doc["sentences"][0]["outcome"] == "PARSE_BUT_NO_SORTING"
    assert doc["sentences"][0]["readings"] == []


def test_no_parse_exits_one():
    status, doc = run_json("kid watched")
    assert status == 1
    assert doc["sentences"][0]["outcome"] == "NO_PARSE"


def test_unknown_word_is_an_error():
    status, doc = run_json("the gnu barked")
    assert status == 3
    record = doc["sentences"][0]
    assert record["outcome"] == "ERROR"
    assert "gnu" in record["error"]


def test_exhausted_budget_is_an_error():
    status, doc = run_json(FLAGSHIP, budget=1)
    assert status == 3
    assert doc["sentences"][0]["outcome"] == "ERROR"


def test_parse_failure_outranks_sort_failure():
    status, doc = run_json("the table barked", "kid watched", FLAGSHIP)
    assert status == 1
    outcomes = [r["outcome"] for r in doc["sentences"]]
    assert outcomes == ["PARSE_BUT_NO_SORTING", "NO_PARSE", "OK"]


def test_error_outranks_everything():
    status, _ = run_json("kid watched", "the gnu barked")
    assert status == 3


def test_failing_sentence_does_not_cost_the_batch():
    # to_formula raises NonLogicalHead on a reading that applies "this"
    # to a complex noun; that sentence alone becomes an ERROR record.
    failing = "every representative of this company of a company saw a samples"
    status, doc = run_json(failing, FLAGSHIP)
    assert status == 3
    records = doc["sentences"]
    assert [r["sentence"] for r in records] == [failing, FLAGSHIP]
    assert [r["outcome"] for r in records] == ["ERROR", "OK"]
    assert records[0]["readings"] == [] and records[0]["error"]
    assert records[1]["readings"][0]["formula_unicode"] == FLAGSHIP_UNICODE
    schema = json.loads((DATA / "output_schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_missing_lexicon_exits_three(tmp_path):
    status, document = run(RunConfig(lexicon_path=str(tmp_path / "nope.json"),
                                     sentences=(FLAGSHIP,)))
    assert status == 3
    assert document.startswith("error: cannot read lexicon")


def test_non_propositional_goal_rejected():
    status, document = run(config(FLAGSHIP, goal="np"))
    assert status == 3
    assert "goal category must denote a proposition" in document


# ---------------------------------------------------------------------------
# argument handling


def test_config_from_args_maps_flags(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("the dog barked\n\nthe sergeant barked\n")
    args = build_arg_parser().parse_args([
        "--lexicon", LEXICON, "--sentence", FLAGSHIP, "--input", str(path),
        "--goal", "S", "--format", "json", "--no-coercions",
        "--allow-empty-antecedent", "--max-readings", "4",
        "--budget", "500", "--stats"])
    cfg = config_from_args(args)
    assert cfg.sentences == (FLAGSHIP, "the dog barked", "the sergeant barked")
    assert cfg.output_format == "json"
    assert cfg.coercions_enabled is False
    assert cfg.lambek_restriction is False
    assert cfg.max_readings == 4
    assert cfg.budget == 500
    assert cfg.stats_enabled is True


def test_budget_must_be_positive(capsys):
    assert main(["--lexicon", LEXICON, "--sentence", FLAGSHIP,
                 "--budget", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_max_readings_must_be_positive(capsys):
    assert main(["--lexicon", LEXICON, "--sentence", FLAGSHIP,
                 "--max-readings", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_main_routes_errors_to_stderr(capsys):
    assert main(["--lexicon", "/does/not/exist.json",
                 "--sentence", FLAGSHIP]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read lexicon")


def test_main_writes_report_to_stdout(capsys):
    assert main(["--lexicon", LEXICON, "--sentence", FLAGSHIP,
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["sentences"][0]["outcome"] == "OK"


# ---------------------------------------------------------------------------
# behavior flags


def test_no_coercions_flips_repairable_sentence():
    status, doc = run_json("the sergeant barked")
    assert status == 0
    assert doc["sentences"][0]["readings"][0]["coercions"] == [
        {"name": "c", "source": "human", "target": "dog",
         "rigid": False, "owner": "barked"}]
    status, doc = run_json("the sergeant barked", coercions_enabled=False)
    assert status == 2
    assert doc["sentences"][0]["outcome"] == "PARSE_BUT_NO_SORTING"


def test_max_readings_truncates():
    status, doc = run_json(FLAGSHIP, max_readings=1)
    assert status == 0
    assert len(doc["sentences"][0]["readings"]) == 1


def test_stats_records():
    status, doc = run_json(FLAGSHIP, stats_enabled=True)
    assert status == 0
    stats = doc["sentences"][0]["stats"]
    assert stats["quantifier_count"] == 2
    assert stats["factorial_expectation"] == 2
    assert stats["observed"] == 2
    assert stats["shortfall"] == 0
    assert doc["grammar_stats"]["max_order"] == 2
    assert doc["grammar_stats"]["total_senses"] == 29


# ---------------------------------------------------------------------------
# text format


def test_text_format_report():
    status, document = run(RunConfig(lexicon_path=LEXICON,
                                     sentences=(FLAGSHIP,)))
    assert status == 0
    lines = document.splitlines()
    assert lines[0] == f"sentence: {FLAGSHIP}"
    assert lines[1] == "outcome: OK"
    assert lines[2] == f"  1. {FLAGSHIP_UNICODE}"
    assert lines[3].startswith("     assignment: ")


def test_text_format_mentions_coercions():
    status, document = run(RunConfig(lexicon_path=LEXICON,
                                     sentences=("the sergeant barked",)))
    assert status == 0
    assert "coercions: c: human->dog (barked)" in document


# ---------------------------------------------------------------------------
# output contract


def corpus_sentences():
    corpus = json.loads((DATA / "golden_corpus.json").read_text())
    return [entry["sentence"] for entry in corpus["sentences"]]


def test_json_output_matches_schema():
    schema = json.loads((DATA / "output_schema.json").read_text())
    status, doc = run_json(*corpus_sentences(), stats_enabled=True)
    assert status == 2
    jsonschema.validate(doc, schema)


def test_consecutive_runs_byte_identical():
    cfg = config(*corpus_sentences(), stats_enabled=True)
    first = run(cfg)
    second = run(cfg)
    assert first == second


def test_json_document_ends_with_newline():
    _, document = run(config(FLAGSHIP))
    assert document.endswith("\n")
    assert document == json.dumps(json.loads(document), ensure_ascii=False,
                                  indent=2, sort_keys=True) + "\n"
