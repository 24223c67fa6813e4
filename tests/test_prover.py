import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from lambeksem import (
    Abs,
    App,
    Atom,
    BETA_ETA_LONG,
    ComposeOptions,
    OccurrenceClass,
    Over,
    ProveOptions,
    SearchLimitExceeded,
    Under,
    UnknownWord,
    Var,
    alpha_eq,
    analyze,
    canonical_key,
    classify_occurrences,
    enumerate_parses,
    extract_term,
    normalize,
    parse_category,
    prove,
    sem_type,
    type_of,
)
from lambeksem import DEFAULT_SORT_MAP
from lambeksem.prover import _Table, proof_key
from seqoracle import SequentOracle, balanced, reading_keys

NP = Atom("np")
N = Atom("n")
S = Atom("S")

EVERY_CAT = parse_category("(S/(np\\S))/n")
TV_CAT = parse_category("(np\\S)/np")
A_CAT = parse_category("((S/np)\\S)/n")
FLAGSHIP = [EVERY_CAT, N, TV_CAT, A_CAT, N]


def norm_key(term):
    return canonical_key(normalize(term, BETA_ETA_LONG))


# ---------------------------------------------------------------------------
# prove


def test_prove_simple_transitive_sentence():
    assert len(prove([NP, TV_CAT, NP], S)) == 1


def test_prove_flagship_has_two_derivations():
    assert len(prove(FLAGSHIP, S)) == 2


def test_prove_np_is_not_a_sentence():
    assert prove([NP], S) == []


def test_prove_empty_antecedent_blocked_by_default():
    assert prove([], Over(S, S)) == []


def test_prove_empty_antecedent_allowed_when_lifted():
    options = ProveOptions(lambek_restriction=False)
    proofs = prove([], Over(S, S), options)
    assert len(proofs) == 1
    term = extract_term(proofs[0])
    assert alpha_eq(normalize(term, BETA_ETA_LONG),
                    Abs("k", sem_type(S), Var("k", sem_type(S))))


def test_prove_exhausted_budget_raises():
    with pytest.raises(SearchLimitExceeded):
        prove(FLAGSHIP, S, ProveOptions(budget=3))


WASHINGTON_6 = ("Washington " + " and ".join(["borders the Potomac"] * 6)).split()


def test_six_conjunct_chain_completes_under_default_budget(demo_lexicon):
    assert analyze(WASHINGTON_6, demo_lexicon).parse_count == 42


def test_budget_counts_the_whole_sentence(demo_lexicon):
    # Only the first of the chain's 32 sense assignments is balanced.  A
    # budget that its search alone just fits is exhausted by the balance
    # checks of the other 31.
    cats = [demo_lexicon.entry(w).senses[0].category for w in WASHINGTON_6]
    table = _Table(ProveOptions())
    assert len(prove(cats, S, _table=table)) == 42
    assert len(prove(cats, S, ProveOptions(budget=table.states))) == 42
    with pytest.raises(SearchLimitExceeded):
        analyze(WASHINGTON_6, demo_lexicon,
                options=ComposeOptions(budget=table.states))


def test_prove_deterministic_across_runs():
    first = [norm_key(extract_term(p)) for p in prove(FLAGSHIP, S)]
    second = [norm_key(extract_term(p)) for p in prove(FLAGSHIP, S)]
    assert first == second
    assert len(set(first)) == 2


# ---------------------------------------------------------------------------
# extract_term

ET = sem_type(N)
E_ = sem_type(NP)


def _hyp_context(cats):
    return {f"h{i}": sem_type(c) for i, c in enumerate(cats)}


def flagship_expected_terms():
    h0 = Var("h0", sem_type(EVERY_CAT))
    h1 = Var("h1", ET)
    h2 = Var("h2", sem_type(TV_CAT))
    h3 = Var("h3", sem_type(A_CAT))
    h4 = Var("h4", ET)
    object_wide = App(
        App(h3, h4),
        Abs("y", E_, App(App(h0, h1), App(h2, Var("y", E_)))))
    subject_wide = App(
        App(h0, h1),
        Abs("x", E_, App(
            App(h3, h4),
            Abs("y", E_, App(App(h2, Var("y", E_)), Var("x", E_))))))
    return object_wide, subject_wide


def test_extract_flagship_terms():
    proofs = prove(FLAGSHIP, S)
    got = {norm_key(extract_term(p)) for p in proofs}
    want = {norm_key(t) for t in flagship_expected_terms()}
    assert len(want) == 2
    assert got == want


def test_extract_axiom_is_bare_hypothesis():
    proofs = prove([NP], NP)
    assert len(proofs) == 1
    assert extract_term(proofs[0]) == Var("h0", E_)


def test_extract_terms_are_linear_and_well_typed():
    pool = [NP, N, S, TV_CAT, EVERY_CAT, A_CAT, Under(NP, S), Over(NP, N)]
    for length in range(1, 4):
        for cats in itertools.product(pool, repeat=length):
            for goal in (S, NP, N):
                for proof in prove(list(cats), goal):
                    term = extract_term(proof)
                    assert classify_occurrences(term) == OccurrenceClass.LINEAR
                    assert type_of(term, _hyp_context(cats)) == sem_type(goal)


# ---------------------------------------------------------------------------
# enumerate_parses


def test_enumerate_flagship_parses(scope_lexicon):
    words = "every kid watched a cartoon".split()
    parses = enumerate_parses(scope_lexicon, words, "S")
    assert len(parses) == 2
    keys = {norm_key(extract_term(p.proof, scope_lexicon.bases)) for p in parses}
    assert keys == {norm_key(t) for t in flagship_expected_terms()}


def test_enumerate_rejects_fragment(scope_lexicon):
    assert enumerate_parses(scope_lexicon, ["kid", "watched"], "S") == []


def test_enumerate_single_noun_at_noun_goal(scope_lexicon):
    parses = enumerate_parses(scope_lexicon, ["kid"], "n")
    assert len(parses) == 1
    assert extract_term(parses[0].proof, scope_lexicon.bases) == Var("h0", ET)


def test_enumerate_unknown_word(scope_lexicon):
    with pytest.raises(UnknownWord):
        enumerate_parses(scope_lexicon, ["every", "gnu"], "S")


def test_enumerate_tries_every_assignment(demo_lexicon):
    # Both "a" senses are tried; only the relative-pronoun one derives,
    # and its two scopings are two parses.
    words = "every representative of a company saw most samples".split()
    parses = enumerate_parses(demo_lexicon, words, "S")
    assert len(parses) == 2
    assert len({norm_key(extract_term(p.proof, demo_lexicon.bases)) for p in parses}) == 2


PARSE_ORDER = json.loads(
    (pathlib.Path(__file__).resolve().parent / "parse_order.json").read_text())


@pytest.mark.parametrize("entry", PARSE_ORDER["sentences"],
                         ids=lambda e: e["sentence"])
def test_enumerate_order_is_pinned(demo_lexicon, entry):
    parses = enumerate_parses(demo_lexicon, entry["sentence"].split(), "S")
    got = [[list(p.sense_indices), norm_key(extract_term(p.proof, demo_lexicon.bases))]
           for p in parses]
    assert got == entry["parses"]


def test_enumerate_deterministic(scope_lexicon):
    words = "every kid watched a cartoon".split()
    first = [(p.sense_indices, norm_key(extract_term(p.proof, scope_lexicon.bases)))
             for p in enumerate_parses(scope_lexicon, words, "S")]
    second = [(p.sense_indices, norm_key(extract_term(p.proof, scope_lexicon.bases)))
              for p in enumerate_parses(scope_lexicon, words, "S")]
    assert first == second


# ---------------------------------------------------------------------------
# agreement with the brute-force sequent enumerator

ORACLE = SequentOracle(DEFAULT_SORT_MAP)


def test_prover_matches_oracle_on_small_exhaustive_sweep():
    pool = [NP, N, S, TV_CAT, EVERY_CAT, A_CAT]
    for length in range(1, 5):
        for cats in itertools.product(pool, repeat=length):
            if not balanced(cats, S):
                assert prove(list(cats), S) == []
                continue
            assert len(prove(list(cats), S)) == len(ORACLE.prove(cats, S))


small_categories = st.recursive(
    st.sampled_from([NP, N, S]),
    lambda inner: st.one_of(st.builds(Under, inner, inner),
                            st.builds(Over, inner, inner)),
    max_leaves=4,
)


@given(st.lists(small_categories, min_size=1, max_size=4), st.sampled_from([NP, N, S]))
@settings(max_examples=120, deadline=None)
def test_property_prover_matches_oracle(cats, goal):
    got = prove(cats, goal)
    expect = reading_keys(tuple(cats), goal, DEFAULT_SORT_MAP, oracle=ORACLE)
    assert len(got) == len(expect)
    assert {norm_key(extract_term(p)) for p in got} == expect


@given(st.lists(small_categories, min_size=1, max_size=4), st.sampled_from([NP, N, S]))
@settings(max_examples=120, deadline=None)
def test_property_extracted_terms_linear_and_sound(cats, goal):
    for proof in prove(cats, goal):
        term = extract_term(proof)
        assert classify_occurrences(term) == OccurrenceClass.LINEAR
        assert type_of(term, _hyp_context(cats)) == sem_type(goal)


UNRESTRICTED_ORACLE = SequentOracle(DEFAULT_SORT_MAP, lambek_restriction=False)


@given(st.lists(small_categories, max_size=3), small_categories)
@settings(max_examples=120, deadline=None)
def test_property_prover_matches_oracle_without_lambek_restriction(cats, goal):
    got = prove(cats, goal, ProveOptions(lambek_restriction=False))
    expect = reading_keys(tuple(cats), goal, DEFAULT_SORT_MAP,
                          oracle=UNRESTRICTED_ORACLE)
    assert len(got) == len(expect)
    assert {norm_key(extract_term(p)) for p in got} == expect


@given(st.lists(small_categories, min_size=1, max_size=4),
       st.sampled_from([NP, N, S]), st.data())
@settings(max_examples=120, deadline=None)
def test_property_warm_table_changes_no_proof(cats, goal, data):
    # B is a span of A plus a few more categories, so that the two
    # searches share subproblems.
    start = data.draw(st.integers(0, len(cats) - 1))
    stop = data.draw(st.integers(start + 1, len(cats)))
    extra = data.draw(st.lists(small_categories, max_size=2))
    other_cats = cats[start:stop] + extra
    other_goal = data.draw(st.sampled_from([NP, N, S]))
    table = _Table(ProveOptions())
    prove(cats, goal, _table=table)
    warm = prove(other_cats, other_goal, _table=table)
    cold = prove(other_cats, other_goal)
    assert [proof_key(p) for p in warm] == [proof_key(p) for p in cold]
    assert [extract_term(p) for p in warm] == [extract_term(p) for p in cold]
