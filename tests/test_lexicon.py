import json

import pytest

from lambeksem import (
    Arrow,
    Const,
    E,
    SortAtom,
    T,
    TypeVar,
    UnknownWord,
    lexicon_to_document,
    load_lexicon,
    parse_category,
    phrase_coercions,
    sem_type,
    type_of,
)
from lambeksem.lexicon import (
    SchemaError,
    SortUndeclared,
    TypeErasureMismatch,
    parse_term,
)
from lambeksem.terms import erase_type

from conftest import scope_document

ET = Arrow(E, T)
GQ = Arrow(ET, Arrow(ET, T))


def load(doc):
    return load_lexicon(json.dumps(doc))


# ---------------------------------------------------------------------------
# load_lexicon


def test_load_scope_lexicon_clean(scope_lexicon):
    assert len(scope_lexicon.entries) == 5
    every = scope_lexicon.entry("every").senses[0]
    assert sem_type(every.category, scope_lexicon.bases) == GQ
    assert erase_type(type_of(every.term)) == GQ


def test_load_rejects_erasure_mismatch():
    doc = scope_document()
    doc["words"][1]["senses"][0]["term"] = "\\x:e. x"
    with pytest.raises(TypeErasureMismatch):
        load(doc)


def test_load_rejects_undeclared_coercion_sort():
    doc = scope_document()
    doc["sorts"] = ["human"]
    doc["words"][1]["coercions"] = [
        {"name": "c", "source": "human", "target": "dog", "rigid": False}]
    with pytest.raises(SortUndeclared):
        load(doc)


def test_load_rejects_undeclared_term_sort():
    doc = scope_document()
    doc["words"][1]["senses"][0]["term"] = "\\x:dog. (kidlike x)"
    with pytest.raises((SortUndeclared, SchemaError)):
        load(doc)


def test_load_rejects_duplicate_word():
    doc = scope_document()
    doc["words"].append(doc["words"][0])
    with pytest.raises(SchemaError):
        load(doc)


def test_load_rejects_duplicate_base_category():
    doc = scope_document()
    doc["base_categories"].append({"name": "np", "sem_type": "e"})
    with pytest.raises(SchemaError):
        load(doc)


def test_load_rejects_constant_used_at_two_types():
    doc = scope_document()
    doc["words"][1]["senses"][0]["term"] = "\\x:e. (watched x)"
    with pytest.raises((SchemaError, TypeErasureMismatch)):
        load(doc)


def test_load_warns_on_vacuous_binder():
    doc = scope_document()
    doc["words"].append({
        "word": "allegedly",
        "senses": [{"category": "n/n",
                    "term": "\\P:(e -> t). \\x:e. (alleged x)"}],
    })
    _, diagnostics = load(doc)
    assert any(d.severity == "warning" and d.where == "allegedly"
               for d in diagnostics)


def test_load_demo_lexicon_shape(demo_lexicon):
    assert "book" in demo_lexicon.sorts
    assert demo_lexicon.entry("washington") is None
    washington = demo_lexicon.entry("Washington")
    names = sorted(c.name for c in washington.coercions)
    assert names == ["as_place", "as_polity"]
    assert [c.rigid for c in sorted(washington.coercions, key=lambda c: c.name)] \
        == [True, False]


# ---------------------------------------------------------------------------
# erasure soundness over every loaded sense


def test_every_demo_sense_erases_to_its_category(demo_lexicon):
    for entry in demo_lexicon.entries:
        for sense in entry.senses:
            expected = sem_type(sense.category, demo_lexicon.bases)
            assert erase_type(type_of(sense.term, strict=False)) == expected


# ---------------------------------------------------------------------------
# round trip


def test_document_round_trip(demo_lexicon):
    reloaded, diagnostics = load(lexicon_to_document(demo_lexicon))
    assert not [d for d in diagnostics if d.severity == "error"]
    assert reloaded == demo_lexicon


def test_scope_document_round_trip(scope_lexicon):
    reloaded, _ = load(lexicon_to_document(scope_lexicon))
    assert reloaded == scope_lexicon


# ---------------------------------------------------------------------------
# phrase_coercions


def test_phrase_coercions_collects_owner(demo_lexicon):
    coercions = phrase_coercions(demo_lexicon, ["the", "sergeant", "barked"])
    assert [(c.name, c.source.name, c.target.name, c.owner)
            for c in coercions] == [("c", "human", "dog", "barked")]


def test_phrase_coercions_offers_no_artifact_repair(demo_lexicon):
    coercions = phrase_coercions(demo_lexicon, ["the", "table", "barked"])
    assert [(c.name, c.source.name, c.target.name) for c in coercions] \
        == [("c", "human", "dog")]


def test_phrase_coercions_empty_without_owners(demo_lexicon):
    assert phrase_coercions(demo_lexicon, ["the", "dog"]) == ()


def test_phrase_coercions_unknown_word(demo_lexicon):
    with pytest.raises(UnknownWord):
        phrase_coercions(demo_lexicon, ["the", "gnu"])


def test_phrase_coercions_counts_repeated_words_once(demo_lexicon):
    once = phrase_coercions(demo_lexicon, ["sergeant", "barked"])
    twice = phrase_coercions(demo_lexicon, ["sergeant", "barked", "barked"])
    assert once == twice


# ---------------------------------------------------------------------------
# term notation


def test_parse_term_annotated_constant():
    term, consts = parse_term("\\x:e. (dog x)", sorts=("e", "t"),
                              expected_erasure=ET)
    assert type_of(term) == ET
    assert consts == {"dog": ET}


def test_parse_term_pins_proposition_positions():
    # The category says e -> t; the binder sort refines e, and the
    # t pin forces the inferred constant to land at dog -> t.
    _, consts = parse_term("\\x:dog. (bark x)", sorts=("e", "t", "dog"),
                           expected_erasure=ET)
    assert consts["bark"] == Arrow(SortAtom("dog"), T)


def test_parse_term_underdetermined_constant_rejected():
    with pytest.raises(TypeErasureMismatch):
        parse_term("john", sorts=("e", "t"), expected_erasure=E)


def test_parse_term_circular_type_rejected():
    # f applied to itself would need a type t with t = t -> r.
    with pytest.raises(TypeErasureMismatch, match="circular"):
        parse_term("\\x:e. (f f)", sorts=("e", "t"))


def test_parse_term_quantifier_over_polymorphic_predicate_ranges_over_e():
    # The quantifier's sort meets idp's schema variable a, which belongs
    # to idp's own instantiation; the quantifier itself stays at e.
    idp = Arrow(Arrow(TypeVar("a"), T), Arrow(TypeVar("a"), T))
    term, _ = parse_term("\\P:(e -> t). (forall (idp P))", sorts=("e", "t"),
                         poly={"idp": idp}, expected_erasure=Arrow(ET, T))
    assert term.body.fn == Const("forall", Arrow(ET, T))


def test_parse_term_reserved_name_cannot_bind():
    from lambeksem.lexicon import TermNotationError
    with pytest.raises(TermNotationError):
        parse_term("\\forall:e. forall", sorts=("e", "t"))


def test_quantifier_goal_category_must_exist(demo_lexicon):
    with pytest.raises(Exception):
        parse_category("zz", demo_lexicon.bases)
