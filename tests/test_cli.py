import json
import pathlib

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from lambeksem.categories import CategorySyntaxError, parse_category
from lambeksem.cli import (_EXIT_SEVERITY, RunConfig, build_arg_parser,
                           config_from_args, main, run)
from lambeksem.lexicon import SchemaError, TermNotationError, load_lexicon

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


# Three thousand levels of parentheses exhaust Python's recursion limit
# in every recursive-descent parser of the package.
DEEP = 3000
TOO_DEEP = "maximum recursion depth exceeded"


def lexicon_with(tmp_path, word: str, term: str) -> str:
    doc = json.loads((DATA / "demo_lexicon.json").read_text())
    entry = next(w for w in doc["words"] if w["word"] == word)
    entry["senses"][0]["term"] = term
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_deeply_nested_lexicon_term_is_an_invalid_lexicon(tmp_path):
    path = lexicon_with(tmp_path, "dog", "(" * DEEP + "\\x:dog. (dog x)" + ")" * DEEP)
    status, document = run(RunConfig(lexicon_path=path,
                                     sentences=("the dog barked",)))
    assert status == 3
    assert document.startswith(f"error: invalid lexicon {path}: {TOO_DEEP}")


def test_malformed_lexicon_is_an_invalid_lexicon(tmp_path):
    doc = json.loads((DATA / "demo_lexicon.json").read_text())
    doc["words"] = ["word"]
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(doc))
    status, document = run(RunConfig(lexicon_path=str(path),
                                     sentences=("the dog barked",)))
    assert status == 3
    assert document.startswith(f"error: invalid lexicon {path}: expected a JSON object")


def test_deeply_nested_goal_is_an_invalid_goal():
    goal = "(" * DEEP + "S" + ")" * DEEP
    status, document = run(config("the dog barked", goal=goal))
    assert status == 3
    assert document.startswith(f"error: invalid goal {goal!r}: {TOO_DEEP}")


def demo_document_with(word: str, **sense) -> str:
    doc = json.loads((DATA / "demo_lexicon.json").read_text())
    next(w for w in doc["words"] if w["word"] == word)["senses"][0].update(sense)
    return json.dumps(doc)


def test_deeply_nested_term_is_a_term_notation_error():
    document = demo_document_with(
        "dog", term="(" * DEEP + "\\x:dog. (dog x)" + ")" * DEEP)
    with pytest.raises(TermNotationError) as caught:
        load_lexicon(document)
    assert str(caught.value).startswith(TOO_DEEP)


def test_term_too_deep_to_type_is_a_term_notation_error():
    # Six hundred binders parse, one frame each, but unifying the
    # term's type with its category's recurses further.
    document = demo_document_with("dog", term="\\x:dog. " * 600 + "(dog x)")
    with pytest.raises(TermNotationError) as caught:
        load_lexicon(document)
    assert str(caught.value).startswith(TOO_DEEP)


def test_deeply_nested_category_is_a_category_syntax_error():
    with pytest.raises(CategorySyntaxError) as caught:
        parse_category("(" * DEEP + "S" + ")" * DEEP)
    assert str(caught.value).startswith(TOO_DEEP)
    document = demo_document_with("dog", category="(" * DEEP + "n" + ")" * DEEP)
    with pytest.raises(SchemaError) as caught:
        load_lexicon(document)
    assert str(caught.value).startswith(TOO_DEEP)


def test_deeply_nested_json_is_invalid_json():
    with pytest.raises(SchemaError) as caught:
        load_lexicon("[" * 100_000 + "]" * 100_000)
    assert str(caught.value).startswith(f"invalid JSON: {TOO_DEEP}")


def test_recursion_in_one_sentence_is_its_error_record(tmp_path):
    # The term is about 70 levels deep and loads; its normal form stacks
    # 70 * 70 nots, which exhausts the recursion limit inside analyze.
    seventy = "(\\g:(t -> t). \\p:t. " + "(g " * 70 + "p" + ")" * 70 + ")"
    path = lexicon_with(tmp_path, "barked",
                        f"\\x:dog. ({seventy} ({seventy} not) (bark x))")
    status, document = run(RunConfig(lexicon_path=path, output_format="json",
                                     sentences=("the dog barked", FLAGSHIP)))
    doc = json.loads(document)
    assert status == 3
    assert [r["outcome"] for r in doc["sentences"]] == ["ERROR", "OK"]
    assert doc["sentences"][0]["error"].startswith(TOO_DEEP)


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


@pytest.mark.parametrize("goal", ["S/", "NP", "np"])
def test_bad_goal_is_one_error_for_the_whole_batch(capsys, goal):
    # Malformed, unknown atom, not a proposition: checked once, before
    # any sentence, however many sentences follow.
    assert main(["--lexicon", LEXICON, "--sentence", FLAGSHIP,
                 "--sentence", "the dog barked", "--goal", goal]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid goal {goal!r}")
    assert captured.err.count("\n") == 1


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


VOCABULARY = [w["word"] for w in json.loads(
    (DATA / "demo_lexicon.json").read_text())["words"]] + ["gnu"]
SCHEMA = json.loads((DATA / "output_schema.json").read_text())
STATUS = {"OK": 0, "NO_PARSE": 1, "PARSE_BUT_NO_SORTING": 2, "ERROR": 3}


# Most random strings do not parse, so golden sentences are mixed in to
# put OK, sort-failure and rendering-error records in the batches too.
RANDOM_SENTENCES = st.lists(st.sampled_from(VOCABULARY), min_size=1,
                            max_size=6).map(" ".join)


@given(st.lists(RANDOM_SENTENCES | st.sampled_from(corpus_sentences()),
                min_size=1, max_size=3),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_property_random_sentences_get_valid_records(sentences, stats):
    status, document = run(config(*sentences, stats_enabled=stats))
    doc = json.loads(document)
    jsonschema.validate(doc, SCHEMA)
    assert [r["sentence"] for r in doc["sentences"]] == sentences
    worst = max((STATUS[r["outcome"]] for r in doc["sentences"]),
                key=_EXIT_SEVERITY.__getitem__)
    assert status == worst
    # A sentence's record does not depend on the sentences around it.
    for sentence, record in zip(sentences, doc["sentences"]):
        _, alone = run(config(sentence, stats_enabled=stats))
        assert json.loads(alone)["sentences"] == [record]
