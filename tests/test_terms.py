import pytest
from hypothesis import given, settings, strategies as st

from lambeksem import (
    Abs,
    App,
    Arrow,
    BETA,
    BETA_ETA_LONG,
    Const,
    E,
    OccurrenceClass,
    SortAtom,
    T,
    TypeMismatch,
    UnboundVariable,
    Var,
    alpha_eq,
    canonical_key,
    classify_occurrences,
    normalize,
    substitute,
    type_of,
)
from lambeksem.terms import (PolyInst, TypeVar, UnificationError, Unifier, canonicalize,
                             free_vars, is_hole, map_types, poly_inst)

ET = Arrow(E, T)
EET = Arrow(E, ET)
QT = Arrow(ET, T)
TT = Arrow(T, Arrow(T, T))

FORALL = Const("forall", QT)
EXISTS = Const("exists", QT)
AND = Const("and", TT)
IMPLIES = Const("implies", TT)

KID = Const("kid", ET)
CARTOON = Const("cartoon", ET)
WATCHED = Const("watched", EET)


def app(fn, *args):
    for a in args:
        fn = App(fn, a)
    return fn


def lam(name, ty, body):
    return Abs(name, ty, body)


# ---------------------------------------------------------------------------
# type_of


def test_type_of_transitive_verb_saturation():
    term = app(WATCHED, Var("x", E), Var("z", E))
    assert type_of(term, {"x": E, "z": E}) == T


def test_type_of_identity():
    assert type_of(lam("x", E, Var("x", E))) == Arrow(E, E)


def test_type_of_arrow_argument_clash():
    with pytest.raises(TypeMismatch) as exc:
        type_of(App(KID, CARTOON))
    assert exc.value.expected == E
    assert exc.value.found == ET


def test_type_of_unbound_variable():
    with pytest.raises(UnboundVariable):
        type_of(Var("x", E), {})


def test_type_of_context_disagreement():
    with pytest.raises(TypeMismatch):
        type_of(Var("x", E), {"x": T})


# ---------------------------------------------------------------------------
# substitute


def test_substitute_no_capture():
    body = lam("Q", ET, App(FORALL, lam("x", E, app(
        IMPLIES, App(Var("P", ET), Var("x", E)), App(Var("Q", ET), Var("x", E))))))
    expected = lam("Q", ET, App(FORALL, lam("x", E, app(
        IMPLIES, App(KID, Var("x", E)), App(Var("Q", ET), Var("x", E))))))
    assert alpha_eq(substitute(body, "P", KID), expected)


def test_substitute_renames_capturing_binder():
    term = lam("x", E, Var("y", E))
    result = substitute(term, "y", Var("x", E))
    assert alpha_eq(result, lam("w", E, Var("x", E)))
    assert free_vars(result) == {"x"}


def test_substitute_without_occurrence_is_identity():
    term = lam("x", E, App(KID, Var("x", E)))
    assert substitute(term, "y", Var("z", E)) == term


def test_substitute_rejects_type_changing_replacement():
    with pytest.raises(TypeMismatch):
        substitute(Var("y", E), "y", KID)


# ---------------------------------------------------------------------------
# normalize


def unreduced_flagship():
    """Quantifier entries applied to noun and verb entries, before any
    reduction: the object quantifier outscopes the subject one."""
    every = lam("P", ET, lam("Q", ET, App(FORALL, lam("x", E, app(
        IMPLIES,
        App(Var("P", ET), Var("x", E)),
        App(Var("Q", ET), Var("x", E)))))))
    a = lam("P", ET, lam("Q", ET, App(EXISTS, lam("x", E, app(
        AND,
        App(Var("P", ET), Var("x", E)),
        App(Var("Q", ET), Var("x", E)))))))
    kid = lam("u", E, App(KID, Var("u", E)))
    cartoon = lam("u", E, App(CARTOON, Var("u", E)))
    watched = lam("y", E, lam("x", E, app(WATCHED, Var("y", E), Var("x", E))))
    return app(a, cartoon, lam("y", E, app(
        app(every, kid),
        lam("x", E, app(watched, Var("y", E), Var("x", E))))))


def reduced_flagship():
    return App(EXISTS, lam("x", E, app(
        AND,
        App(CARTOON, Var("x", E)),
        App(FORALL, lam("z", E, app(
            IMPLIES,
            App(KID, Var("z", E)),
            app(WATCHED, Var("x", E), Var("z", E))))))))


def test_normalize_flagship_reduction():
    assert alpha_eq(normalize(unreduced_flagship(), BETA), reduced_flagship())


def test_normalize_identity_redex():
    assert normalize(App(lam("x", ET, Var("x", ET)), KID), BETA) == KID


def test_normalize_normal_form_is_fixed_point():
    term = reduced_flagship()
    assert normalize(term, BETA) == term


def test_normalize_eta_long_expands_first_order_argument():
    long = normalize(App(EXISTS, KID), BETA_ETA_LONG)
    assert alpha_eq(long, App(EXISTS, lam("x", E, App(KID, Var("x", E)))))


# ---------------------------------------------------------------------------
# alpha_eq


def test_alpha_eq_renamed_identity():
    assert alpha_eq(lam("x", E, Var("x", E)), lam("y", E, Var("y", E)))


def test_alpha_eq_distinguishes_projections():
    first = lam("x", E, lam("y", E, Var("x", E)))
    second = lam("x", E, lam("y", E, Var("y", E)))
    assert not alpha_eq(first, second)


def test_alpha_eq_reading_under_full_renaming():
    renamed = App(EXISTS, lam("u", E, app(
        AND,
        App(CARTOON, Var("u", E)),
        App(FORALL, lam("v", E, app(
            IMPLIES,
            App(KID, Var("v", E)),
            app(WATCHED, Var("u", E), Var("v", E))))))))
    assert alpha_eq(reduced_flagship(), renamed)
    assert canonical_key(reduced_flagship()) == canonical_key(renamed)


def test_alpha_eq_is_type_sensitive():
    assert not alpha_eq(lam("x", E, Var("x", E)), lam("x", T, Var("x", T)))


# ---------------------------------------------------------------------------
# classify_occurrences


def test_classify_quantifier_entry_relevant():
    every = lam("P", ET, lam("Q", ET, App(FORALL, lam("x", E, app(
        IMPLIES,
        App(Var("P", ET), Var("x", E)),
        App(Var("Q", ET), Var("x", E)))))))
    assert classify_occurrences(every) == OccurrenceClass.RELEVANT


def test_classify_transitive_verb_entry_linear():
    watched = lam("y", E, lam("x", E, app(WATCHED, Var("x", E), Var("y", E))))
    assert classify_occurrences(watched) == OccurrenceClass.LINEAR


def test_classify_vacuous_binder_affine():
    assert classify_occurrences(lam("x", E, KID)) == OccurrenceClass.AFFINE


def test_classify_mixed_unrestricted():
    term = lam("x", T, lam("y", T, app(AND, Var("x", T), Var("x", T))))
    assert classify_occurrences(term) == OccurrenceClass.UNRESTRICTED


# ---------------------------------------------------------------------------
# map_types and the hole unifier

DOG = SortAtom("dog")


def test_map_types_reaches_every_type_position():
    term = app(poly_inst("pand", Arrow(TypeVar("a"), T)),
               lam("x", E, app(Const("bark", ET), Var("x", E))))
    # f sees whole types: the binder's and the variable's e, and bark's e -> t.
    mapped = map_types(term, lambda ty: DOG if ty == E else ty)
    assert mapped == app(poly_inst("pand", Arrow(TypeVar("a"), T)),
                         lam("x", DOG, app(Const("bark", ET), Var("x", DOG))))
    grounded = map_types(poly_inst("pand", Arrow(TypeVar("a"), T), {"a": DOG}),
                         lambda ty: E)
    assert isinstance(grounded, PolyInst) and grounded.inst_map == {"a": E}


def test_unifier_ground_closes_holes_only():
    u = Unifier()
    hole = u.fresh()
    assert is_hole(hole)
    assert u.ground(Arrow(hole, TypeVar("a"))) == Arrow(E, TypeVar("a"))
    assert u.unify(hole, DOG) == []
    assert u.ground(Arrow(hole, T)) == Arrow(DOG, T)


def test_unifier_returns_atom_clashes_and_rejects_cycles():
    u = Unifier()
    assert u.unify(Arrow(DOG, T), Arrow(E, T)) == [(DOG, E)]
    assert u.unify(TypeVar("a"), DOG) == [(TypeVar("a"), DOG)]
    with pytest.raises(UnificationError):
        u.unify(TypeVar("_x"), Arrow(TypeVar("_x"), T))


def test_unifier_apply_opens_a_result_hole():
    u = Unifier()
    fn = u.fresh()
    result, clashes = u.apply(fn, DOG)
    assert clashes == [] and is_hole(result)
    assert u.resolve(fn) == Arrow(DOG, result)
    assert u.apply(Arrow(E, T), DOG) == (T, [(E, DOG)])


SORT_ATOMS = [E, T, DOG]
unifier_types = st.recursive(
    st.sampled_from(SORT_ATOMS + [TypeVar("_a"), TypeVar("_b"), TypeVar("_c"),
                                  TypeVar("p"), TypeVar("q")]),
    lambda inner: st.builds(Arrow, inner, inner), max_leaves=6)


@given(unifier_types, unifier_types)
@settings(max_examples=300, deadline=None)
def test_property_unifier(a, b):
    u = Unifier()
    try:
        clashes = u.unify(a, b)
    except UnificationError:
        clashes = None
    assert all(is_hole(TypeVar(name)) for name in u.binding)
    if clashes is None:
        return
    if not clashes:
        assert u.resolve(a) == u.resolve(b)
    for x, y in clashes:
        assert x != y
        assert not isinstance(x, Arrow) and not isinstance(y, Arrow)
        assert not is_hole(x) and not is_hole(y)


@given(st.sampled_from(SORT_ATOMS), unifier_types, unifier_types)
@settings(max_examples=100, deadline=None)
def test_property_unifier_sort_against_arrow_raises(sort, dom, cod):
    with pytest.raises(UnificationError):
        Unifier().unify(sort, Arrow(dom, cod))
    with pytest.raises(UnificationError):
        Unifier().unify(Arrow(dom, cod), sort)


# ---------------------------------------------------------------------------
# property suite

SORT_S = SortAtom("s")
BASES = (E, T, SORT_S)
VAR_POOL = ("v0", "v1", "v2")
FREE_ENV = {"f0": E, "f1": ET, "f2": T}

small_types = st.recursive(
    st.sampled_from(BASES),
    lambda inner: st.builds(Arrow, inner, inner),
    max_leaves=3,
)


@st.composite
def typed_term(draw, ty, env, depth):
    fitting = sorted(name for name, t in env.items() if t == ty)
    options = ["const"]
    if fitting:
        options.append("var")
    if isinstance(ty, Arrow):
        options.append("abs")
    if depth > 0:
        options.append("app")
    kind = draw(st.sampled_from(options))
    if kind == "var":
        return Var(draw(st.sampled_from(fitting)), ty)
    if kind == "const":
        return Const(f"c{draw(st.integers(0, 2))}_{abs(hash(str(ty))) % 97}", ty)
    if kind == "abs":
        name = draw(st.sampled_from(VAR_POOL))
        body = draw(typed_term(ty.codomain, {**env, name: ty.domain}, depth))
        return Abs(name, ty.domain, body)
    domain = draw(small_types)
    fn = draw(typed_term(Arrow(domain, ty), env, depth - 1))
    arg = draw(typed_term(domain, env, depth - 1))
    return App(fn, arg)


closed_terms = small_types.flatmap(lambda ty: typed_term(ty, {}, 2))
open_terms = small_types.flatmap(lambda ty: typed_term(ty, dict(FREE_ENV), 2))


@given(open_terms)
@settings(max_examples=150, deadline=None)
def test_property_normalization_preserves_type(term):
    before = type_of(term, FREE_ENV)
    assert type_of(normalize(term, BETA), FREE_ENV) == before
    assert type_of(normalize(term, BETA_ETA_LONG), FREE_ENV) == before


@given(open_terms)
@settings(max_examples=150, deadline=None)
def test_property_normalization_idempotent(term):
    for mode in (BETA, BETA_ETA_LONG):
        once = normalize(term, mode)
        assert alpha_eq(normalize(once, mode), once)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_property_substitution_sound_and_capture_free(data):
    term = data.draw(open_terms)
    replacement = data.draw(typed_term(FREE_ENV["f0"], dict(FREE_ENV), 1))
    before = type_of(term, FREE_ENV)
    result = substitute(term, "f0", replacement)
    assert type_of(result, FREE_ENV) == before
    if "f0" in free_vars(term):
        assert free_vars(result) == (free_vars(term) - {"f0"}) | free_vars(replacement)
    else:
        assert result == term


@given(open_terms)
@settings(max_examples=150, deadline=None)
def test_property_classification_alpha_stable(term):
    assert classify_occurrences(canonicalize(term)) == classify_occurrences(term)


@given(open_terms)
@settings(max_examples=150, deadline=None)
def test_property_canonical_key_tracks_alpha_classes(term):
    renamed = canonicalize(term)
    assert alpha_eq(term, renamed)
    assert canonical_key(term) == canonical_key(renamed)
