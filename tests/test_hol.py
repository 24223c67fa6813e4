import json

import pytest

from lambeksem import (
    ASCII,
    App,
    Arrow,
    BETA_ETA_LONG,
    Conn,
    Const,
    E,
    NonLogicalHead,
    NotAProposition,
    Pred,
    Quant,
    T,
    UNICODE,
    Var,
    alpha_eq,
    compute_readings,
    formula_to_term,
    formula_tree,
    normalize,
    render,
    to_formula,
)
from lambeksem.hol import FVar, free_vars

from test_terms import WATCHED, app, reduced_flagship

FLAGSHIP_UNICODE = "∃x. cartoon(x) ∧ ∀z. kid(z) ⇒ watched(z,x)"
FLAGSHIP_ASCII = "exists x. cartoon(x) & forall z. kid(z) -> watched(z,x)"


def fv(name):
    return FVar(name, E)


# ---------------------------------------------------------------------------
# to_formula


def test_to_formula_flagship():
    formula = to_formula(reduced_flagship())
    assert isinstance(formula, Quant)
    assert formula.kind == "exists"
    assert formula.variable == "x"
    body = formula.body
    assert isinstance(body, Conn) and body.kind == "and"
    assert body.left == Pred("cartoon", (fv("x"),))
    inner = body.right
    assert isinstance(inner, Quant) and inner.kind == "forall"
    assert inner.variable == "z"
    assert inner.body.right == Pred("watched", (fv("z"), fv("x")))


def test_to_formula_reverses_predicate_arguments():
    term = app(WATCHED, Var("x", E), Var("z", E))
    assert to_formula(term) == Pred("watched", (fv("z"), fv("x")))


def test_to_formula_nullary_proposition():
    assert to_formula(Const("rain", T)) == Pred("rain", ())


def test_to_formula_rejects_non_proposition():
    with pytest.raises(NotAProposition):
        to_formula(Const("kid", Arrow(E, T)))


def test_to_formula_rejects_variable_head():
    with pytest.raises(NonLogicalHead):
        to_formula(Var("p", T))


# ---------------------------------------------------------------------------
# free_vars


def defective_scope_formula():
    """The ill-formed wide-scope reading of the three-quantifier
    sentence: the first y occurrence escapes its binder."""
    return Quant("forall", "x", E, Conn(
        "implies",
        Pred("representative_of", (fv("x"), fv("y"))),
        Quant("most", "z", E, Conn(
            "implies",
            Pred("sample", (fv("z"),)),
            Quant("exists", "y", E, Conn(
                "and",
                Pred("company", (fv("y"),)),
                Pred("see", (fv("x"), fv("z")))))))))


def test_free_vars_defective_scope():
    assert free_vars(defective_scope_formula()) == {"y"}


def test_free_vars_of_readings_empty(demo_lexicon, corpus):
    for entry in corpus["sentences"]:
        for reading in compute_readings(entry["sentence"].split(),
                                        demo_lexicon, "S"):
            assert free_vars(to_formula(reading.formula_term)) == set()


def test_free_vars_unquantified_predicate():
    assert free_vars(Pred("kid", (fv("x"),))) == {"x"}


# ---------------------------------------------------------------------------
# render


def test_render_flagship_unicode():
    assert render(to_formula(reduced_flagship()), UNICODE) == FLAGSHIP_UNICODE


def test_render_flagship_ascii():
    assert render(to_formula(reduced_flagship()), ASCII) == FLAGSHIP_ASCII


def test_render_nullary():
    assert render(Pred("rain", ()), UNICODE) == "rain"


def test_render_precedence_and_inside_or():
    a, b, c = Pred("a", ()), Pred("b", ()), Pred("c", ())
    assert render(Conn("or", Conn("and", a, b), c), ASCII) == "a & b | c"
    assert render(Conn("and", Conn("or", a, b), c), ASCII) == "(a | b) & c"


def test_render_implies_right_associative():
    a, b, c = Pred("a", ()), Pred("b", ()), Pred("c", ())
    assert render(Conn("implies", a, Conn("implies", b, c)), ASCII) \
        == "a -> b -> c"
    assert render(Conn("implies", Conn("implies", a, b), c), ASCII) \
        == "(a -> b) -> c"


def test_render_quantifier_parenthesized_off_tail():
    inner = Quant("forall", "x", E, Pred("p", (fv("x"),)))
    formula = Conn("implies", inner, Pred("q", ()))
    assert render(formula, ASCII) == "(forall x. p(x)) -> q"
    tail = Conn("implies", Pred("q", ()), inner)
    assert render(tail, ASCII) == "q -> forall x. p(x)"


def test_render_generalized_quantifier_by_name():
    formula = Quant("most", "x", E, Pred("sample", (fv("x"),)))
    assert render(formula, UNICODE) == "most x. sample(x)"
    assert render(formula, ASCII) == "most x. sample(x)"


def test_render_defective_scope_matches_reference():
    assert render(defective_scope_formula(), UNICODE) == (
        "∀x. representative_of(x,y) ⇒ "
        "most z. sample(z) ⇒ ∃y. company(y) ∧ see(x,z)")


# ---------------------------------------------------------------------------
# formula_tree


def test_formula_tree_coercion_node(demo_lexicon):
    reading, = compute_readings("the sergeant barked".split(),
                                demo_lexicon, "S")
    tree = formula_tree(to_formula(reading.formula_term))
    assert tree["kind"] == "pred"
    arg = tree["args"][0]
    assert arg["kind"] == "coerce"
    assert (arg["name"], arg["source"], arg["target"]) == ("c", "human", "dog")


# ---------------------------------------------------------------------------
# bijection on the supported fragment


def test_formula_round_trip_on_corpus(demo_lexicon, corpus):
    for entry in corpus["sentences"]:
        for reading in compute_readings(entry["sentence"].split(),
                                        demo_lexicon, "S"):
            term = reading.formula_term
            back = formula_to_term(to_formula(term))
            assert alpha_eq(normalize(back, BETA_ETA_LONG),
                            normalize(term, BETA_ETA_LONG))


def test_formula_round_trip_keeps_argument_order():
    term = app(WATCHED, Var("x", E), Var("z", E))
    assert formula_to_term(to_formula(term)) == term


def test_render_injective_on_corpus_readings(demo_lexicon, corpus):
    seen = {}
    for entry in corpus["sentences"]:
        for reading in compute_readings(entry["sentence"].split(),
                                        demo_lexicon, "S"):
            formula = to_formula(reading.formula_term)
            text = render(formula, UNICODE)
            tree = json.dumps(formula_tree(formula), sort_keys=True)
            assert seen.setdefault(text, tree) == tree
