import json

import pytest
from hypothesis import given, settings, strategies as st

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
    LexiconError,
    SchemaError,
    SortUndeclared,
    TermNotationError,
    TypeErasureMismatch,
    parse_sem_type,
    parse_term,
)
from lambeksem.terms import erase_type

import parseoracle
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


def _with_coercion(doc, **fields):
    doc["sorts"] = ["human"]
    doc["words"][1]["coercions"] = [
        {"name": "as_e", "source": "human", "target": "e", **fields}]


MALFORMED = {
    "rigid as string": lambda d: _with_coercion(d, rigid="false"),
    "rigid as number": lambda d: _with_coercion(d, rigid=0),
    "quantifier as string": lambda d: d["words"][0]["senses"][0].update(quantifier="false"),
    "quantifier null": lambda d: d["words"][0]["senses"][0].update(quantifier=None),
    "word as string": lambda d: d.update(words=["word"]),
    "sense as string": lambda d: d["words"][0].update(senses=["category"]),
    "coercion as string": lambda d: d["words"][0].update(coercions=["name"]),
    "coercions null": lambda d: d["words"][0].update(coercions=None),
    "base category as string": lambda d: d.update(base_categories=["name"]),
    "poly constant as string": lambda d: d.update(poly_constants=["name"]),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_load_rejects_malformed_fields(edit):
    doc = scope_document()
    edit(doc)
    with pytest.raises(SchemaError):
        load(doc)


def test_load_reads_boolean_flags():
    doc = scope_document()
    _with_coercion(doc, rigid=False)
    doc["words"][0]["senses"][0]["quantifier"] = False
    lexicon, _ = load(doc)
    assert not lexicon.entry("kid").coercions[0].rigid
    assert not lexicon.entry("every").senses[0].quantifier


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
    with pytest.raises(TermNotationError):
        parse_term("\\forall:e. forall", sorts=("e", "t"))


@pytest.mark.parametrize("text, position", [
    ("\\x:(dog -> ). (bark x)", 11),   # the ')' where a type belongs
    ("\\x:(dog -> t t). x", 13),       # the second t, where ')' belongs
])
def test_type_errors_in_a_term_point_at_the_offending_token(text, position):
    with pytest.raises(TermNotationError) as exc:
        parse_term(text, sorts=("e", "t", "dog"))
    assert exc.value.position == position


@pytest.mark.parametrize("text, error", [
    # An annotation is parsed as a type wherever it stands, also on a
    # reserved name whose type does not come from it.
    ("\\P:(e -> t). (forall:(zzz -> t) P)", SortUndeclared),
    ("\\P:(e -> t). (forall:((e -> t) ->) P)", TermNotationError),
    ("\\x:e. (bark x:zzz)", SortUndeclared),
    ("\\x:e. (bark x:e)", TermNotationError),
])
def test_every_annotation_is_a_well_formed_type(text, error):
    with pytest.raises(error):
        parse_term(text, sorts=("e", "t"))


SORTS = ("e", "t", "dog", "human")


@pytest.mark.parametrize("text, error, message, two_pass_error", [
    # A sort clash inside the parentheses comes before the trailing ')'.
    ("(bark:(dog -> t) john:human) )", TypeErasureMismatch,
     "cannot reconcile dog with human", TermNotationError),
    # A reserved binder comes before its undeclared sort.
    ("\\forall:zzz. x", TermNotationError, "reserved name", SortUndeclared),
    # A sort clash comes before a later undeclared sort.
    ("\\x:dog. (bark:(human -> t) x) y:zzz", TypeErasureMismatch,
     "cannot reconcile human with dog", SortUndeclared),
])
def test_first_fault_in_reading_order_is_reported(text, error, message, two_pass_error):
    with pytest.raises(error, match=message):
        parse_term(text, sorts=SORTS)
    with pytest.raises(two_pass_error):
        parseoracle.parse_term(text, sorts=SORTS)


TYPE_TEXTS = st.recursive(
    st.sampled_from(("e", "t", "dog", "human", "a")),
    lambda inner: st.builds("({} -> {})".format, inner, inner), max_leaves=3)
NAME_TEXTS = st.builds(
    lambda name, annotation: name if annotation is None else f"{name}:{annotation}",
    st.sampled_from(("x", "y", "P", "john", "bark", "f", "c", "idp", "and", "forall")),
    st.none() | TYPE_TEXTS)
GRAMMAR_TEXTS = st.recursive(NAME_TEXTS, lambda inner: st.one_of(
    st.builds("\\{}:{}. {}".format, st.sampled_from(("x", "y", "P", "exists")),
              TYPE_TEXTS, inner),
    st.builds("({} {})".format, inner, inner),
    st.builds("{} {}".format, inner, inner)), max_leaves=6)
TOKEN_TEXTS = st.lists(st.sampled_from(
    ("\\", ".", "(", ")", ":", "->", "x", "P", "e", "t", "dog", "human", "bark",
     "john", "c", "idp", "forall", "and", "%")), max_size=14).map(" ".join)


def _parse_or_reject(parse, text, **context):
    try:
        return parse(text, **context)
    except LexiconError:
        return "rejected"


@settings(max_examples=400, deadline=None)
@given(text=GRAMMAR_TEXTS | TOKEN_TEXTS,
       schema_vars=st.sampled_from(((), ("a",))),
       expected=st.none() | st.sampled_from((E, T, ET, Arrow(ET, T),
                                             Arrow(SortAtom("dog"), T))))
def test_parse_term_agrees_with_the_two_pass_parser(text, schema_vars, expected):
    # The one-pass parser accepts exactly the texts the two-pass one
    # does, with an equal term and equal constant types.
    context = dict(sorts=SORTS, schema_vars=schema_vars, expected_erasure=expected,
                   poly={"idp": Arrow(Arrow(TypeVar("a"), T), Arrow(TypeVar("a"), T))},
                   coercion_types={"c": Arrow(SortAtom("human"), SortAtom("dog"))},
                   constant_types={"john": SortAtom("human")})
    assert (_parse_or_reject(parse_term, text, **context)
            == _parse_or_reject(parseoracle.parse_term, text, **context))


def test_parse_sem_type_reports_source_positions():
    with pytest.raises(TermNotationError) as exc:
        parse_sem_type("e -> (t", ("e", "t"))
    assert exc.value.position == 7
    with pytest.raises(TermNotationError) as exc:
        parse_sem_type("e -> t t", ("e", "t"))
    assert exc.value.position == 7
    assert parse_sem_type("(e -> t) -> a", ("e", "t"), ("a",)) == Arrow(ET, TypeVar("a"))


def test_quantifier_goal_category_must_exist(demo_lexicon):
    with pytest.raises(Exception):
        parse_category("zz", demo_lexicon.bases)
