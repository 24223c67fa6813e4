import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lambeksem import (
    App,
    Arrow,
    BETA,
    BETA_ETA_LONG,
    Coercion,
    ComposeOptions,
    CompositionError,
    Const,
    E,
    PARSE_BUT_NO_SORTING,
    SortAtom,
    T,
    UNICODE,
    Var,
    alpha_eq,
    analyze,
    canonical_key,
    compute_readings,
    enumerate_parses,
    extract_term,
    find_mismatches,
    lexicon_to_document,
    load_lexicon,
    normalize,
    phrase_coercions,
    render,
    resolve_coercions,
    substitute_lexical,
    to_formula,
    type_of,
)
from lambeksem import composer, terms
from lambeksem.cli import RunConfig, run
from lambeksem.terms import free_vars, term_to_text

import substoracle
import termoracle
from conftest import DATA
from test_composition_pins import pinned_sentences

from test_terms import reduced_flagship, unreduced_flagship

DOG = SortAtom("dog")
HUMAN = SortAtom("human")
CITY = SortAtom("city")
LOC = SortAtom("loc")

BARK = Const("bark", Arrow(DOG, T))
AND2 = Const("and", Arrow(T, Arrow(T, T)))

FLAGSHIP_WORDS = "every kid watched a cartoon".split()


def reading_keys(readings):
    return sorted(canonical_key(normalize(r.formula_term, BETA_ETA_LONG))
                  for r in readings)


# ---------------------------------------------------------------------------
# substitute_lexical


def object_wide_parse(lexicon):
    for parse in enumerate_parses(lexicon, FLAGSHIP_WORDS, "S"):
        term = normalize(substitute_lexical(parse, lexicon), BETA)
        if alpha_eq(term, reduced_flagship()):
            return parse
    raise AssertionError("no parse reduces to the object-wide reading")


def test_substitute_produces_unreduced_application(scope_lexicon):
    parse = object_wide_parse(scope_lexicon)
    substituted = substitute_lexical(parse, scope_lexicon)
    assert alpha_eq(substituted, unreduced_flagship())


def test_substitute_bare_noun(scope_lexicon):
    parse, = enumerate_parses(scope_lexicon, ["kid"], "n")
    substituted = substitute_lexical(parse, scope_lexicon)
    expected = scope_lexicon.entry("kid").senses[0].term
    assert alpha_eq(substituted, expected)


def test_substitute_constant_senses_keep_derivational_shape():
    doc = {
        "sorts": [],
        "base_categories": [],
        "poly_constants": [],
        "words": [
            {"word": "john", "senses": [{"category": "np", "term": "john:e"}]},
            {"word": "runs",
             "senses": [{"category": "np \\ S", "term": "run:(e -> t)"}]},
        ],
    }
    lexicon, _ = load_lexicon(json.dumps(doc))
    parse, = enumerate_parses(lexicon, ["john", "runs"], "S")
    assert extract_term(parse.proof, lexicon.bases) == App(Var("h1", Arrow(E, T)), Var("h0", E))
    substituted = substitute_lexical(parse, lexicon)
    assert substituted == App(Const("run", Arrow(E, T)), Const("john", E))


def np_chains(max_m: int) -> list[str]:
    """The noun-modifier chain shapes of the benchmark, up to m modifiers."""
    out = []
    for m in range(1, max_m + 1):
        for dets in itertools.product(("the", "this", "a"), repeat=m):
            for q in ("a", "most", "the", "this"):
                out.append("every representative "
                           + " ".join(f"of {d} company" for d in dets)
                           + f" saw {q} samples")
    return out


def determiner_sentences() -> list[str]:
    """Every `the/this N1 V the/this N2` of the demo lexicon."""
    doc = json.loads((DATA / "demo_lexicon.json").read_text())
    nouns = [w["word"] for w in doc["words"]
             if any(s["category"] == "n" for s in w["senses"])]
    return [f"{d1} {n1} {v} {d2} {n2}"
            for d1, n1, v, d2, n2 in itertools.product(
                ("the", "this"), nouns, ("watched", "saw", "borders", "attacked"),
                ("the", "this"), nouns)]


SUBSTITUTION_SENTENCES = list(dict.fromkeys(
    pinned_sentences() + np_chains(3) + determiner_sentences()))


@given(st.sampled_from(SUBSTITUTION_SENTENCES), st.data())
@settings(max_examples=80, deadline=None)
def test_property_shared_substitution_matches_reference(demo_lexicon, sentence,
                                                         data):
    # One table serves the parses in an order hypothesis picks; each
    # parse must still substitute as if it were alone.
    parses = enumerate_parses(demo_lexicon, sentence.split(), "S")
    order = data.draw(st.permutations(range(len(parses))))
    table = composer._Substitutions(demo_lexicon)
    for i in order:
        shared = substitute_lexical(parses[i], demo_lexicon, _table=table)
        alone = substoracle.substitute_lexical(parses[i], demo_lexicon)
        assert canonical_key(shared) == canonical_key(alone)


def test_determiners_get_their_sorts_from_their_own_nouns(demo_lexicon):
    # Each "the" has its own sort hole: sharing one between the two
    # would bind it to human and then clash with artifact.
    words = "the kid watched the cartoon".split()
    assert analyze(words, demo_lexicon).outcome == "OK"
    status, document = run(RunConfig(lexicon_path=str(DATA / "demo_lexicon.json"),
                                     sentences=(" ".join(words),)))
    assert status == 0
    readings = [line.strip() for line in document.splitlines()
                if line.startswith("  1.") or line.startswith("  2.")]
    assert readings == ["1. watched(the(kid),the(cartoon))"]


def test_open_hypothesis_type_keeps_its_node_unshared():
    # In "john likes k", with k the object quantifier's hypothesis, the
    # node's type t is closed but k's sort is still a hole that only "a
    # dog" fixes, above the node.  Grounding the node at once would
    # instantiate like at e and leave a sort clash with dog.
    doc = {
        "sorts": ["dog"],
        "base_categories": [{"name": "np", "sem_type": "e"},
                            {"name": "n", "sem_type": "e -> t"},
                            {"name": "S", "sem_type": "t"}],
        "poly_constants": [{"name": "like", "schema": "a -> (e -> t)"}],
        "words": [
            {"word": "john", "senses": [{"category": "np", "term": "john:e"}]},
            {"word": "likes",
             "senses": [{"category": "(np \\ S) / np", "term": "like"}]},
            {"word": "a", "senses": [{
                "category": "((S / np) \\ S) / n",
                "term": "\\P:(dog -> t). \\Q:(dog -> t). "
                        "(exists (\\x:dog. ((and (P x)) (Q x))))",
                "quantifier": True}]},
            {"word": "dog",
             "senses": [{"category": "n", "term": "\\x:dog. (dog x)"}]},
        ],
    }
    lexicon, _ = load_lexicon(json.dumps(doc))
    words = "john likes a dog".split()
    parse, = enumerate_parses(lexicon, words, "S")
    substituted = substitute_lexical(parse, lexicon)
    assert canonical_key(substituted) == canonical_key(
        substoracle.substitute_lexical(parse, lexicon))
    assert "like[a=dog]" in term_to_text(substituted)
    assert analyze(words, lexicon).outcome == "OK"


# ---------------------------------------------------------------------------
# find_mismatches


def coercion(name="c", source=HUMAN, target=DOG, rigid=False, owner="barked"):
    return Coercion(name, source, target, rigid, owner)


def test_find_mismatches_sort_clash():
    term = App(BARK, Const("sarge", HUMAN))
    sites = find_mismatches(term, (coercion(),))
    assert len(sites) == 1
    site = sites[0]
    assert site.expected == DOG
    assert site.found == HUMAN
    assert not site.fatal
    assert site.candidates == ((coercion(),),)


def test_find_mismatches_clean_term():
    assert find_mismatches(App(BARK, Const("rex", DOG))) == []


def test_find_mismatches_arrow_clash_is_fatal():
    term = App(BARK, Const("doggish", Arrow(E, T)))
    sites = find_mismatches(term)
    assert len(sites) == 1
    assert sites[0].fatal


def test_find_mismatches_without_candidates():
    sites = find_mismatches(App(BARK, Const("sarge", HUMAN)))
    assert len(sites) == 1
    assert sites[0].candidates == ()


# ---------------------------------------------------------------------------
# resolve_coercions


def test_resolve_repairs_sergeant():
    term = App(BARK, Const("sarge", HUMAN))
    results = resolve_coercions(term, (coercion(),))
    assert len(results) == 1
    repaired, choices = results[0]
    assert repaired == App(BARK, App(Const("c", Arrow(HUMAN, DOG)),
                                     Const("sarge", HUMAN)))
    assert type_of(repaired) == T
    assert [c.name for _, chain in choices for c in chain] == ["c"]


def test_resolve_rejects_unavailable_repair():
    term = App(BARK, Const("tbl", SortAtom("artifact")))
    assert resolve_coercions(term, (coercion(),)) == []


def test_resolve_rigid_blocks_sibling_coercion():
    # Both sites need a repair owned by the same word; making either
    # coercion rigid forbids combining it with the other.
    term = App(App(AND2,
                   App(Const("p", Arrow(DOG, T)), Const("a", HUMAN))),
               App(Const("q", Arrow(LOC, T)), Const("b", CITY)))
    flexible = (coercion("c1", HUMAN, DOG, False, "w"),
                coercion("c2", CITY, LOC, False, "w"))
    one_rigid = (coercion("c1", HUMAN, DOG, True, "w"),
                 coercion("c2", CITY, LOC, False, "w"))
    assert len(resolve_coercions(term, flexible)) == 1
    assert resolve_coercions(term, one_rigid) == []


def test_resolve_rigid_alone_is_usable():
    term = App(BARK, Const("sarge", HUMAN))
    results = resolve_coercions(term, (coercion(rigid=True),))
    assert len(results) == 1


def test_resolve_distinct_owners_do_not_block():
    term = App(App(AND2,
                   App(Const("p", Arrow(DOG, T)), Const("a", HUMAN))),
               App(Const("q", Arrow(LOC, T)), Const("b", CITY)))
    available = (coercion("c1", HUMAN, DOG, True, "w1"),
                 coercion("c2", CITY, LOC, True, "w2"))
    assert len(resolve_coercions(term, available)) == 1


def test_resolve_fatal_site_unrepairable():
    term = App(BARK, Const("doggish", Arrow(E, T)))
    assert resolve_coercions(term, (coercion(),)) == []


# ---------------------------------------------------------------------------
# compute_readings


def test_flagship_two_readings(scope_lexicon):
    readings = compute_readings(FLAGSHIP_WORDS, scope_lexicon, "S")
    assert len(readings) == 2
    assert any(alpha_eq(r.formula_term, reduced_flagship()) for r in readings)


def test_table_fails_sorting(demo_lexicon):
    result = analyze("the table barked".split(), demo_lexicon, "S")
    assert result.outcome == PARSE_BUT_NO_SORTING
    assert result.readings == ()
    assert result.parse_count == 1


def test_dog_needs_no_coercion(demo_lexicon):
    readings = compute_readings("the dog barked".split(), demo_lexicon, "S")
    assert len(readings) == 1
    assert readings[0].coercions_used() == ()


def test_sergeant_uses_one_coercion(demo_lexicon):
    readings = compute_readings("the sergeant barked".split(), demo_lexicon, "S")
    assert len(readings) == 1
    reading = readings[0]
    used = reading.coercions_used()
    assert [(c.name, c.source.name, c.target.name) for c in used] \
        == [("c", "human", "dog")]

    def count_coercion(t):
        if isinstance(t, App):
            return count_coercion(t.fn) + count_coercion(t.arg)
        if isinstance(t, Const):
            return int(t.name == "c")
        return 0

    assert count_coercion(reading.formula_term) == 1


def test_coercions_can_be_disabled(demo_lexicon):
    options = ComposeOptions(coercions_enabled=False)
    result = analyze("the sergeant barked".split(), demo_lexicon, "S", options)
    assert result.outcome == PARSE_BUT_NO_SORTING


def test_goal_must_be_a_proposition(demo_lexicon):
    with pytest.raises(CompositionError):
        analyze(["kid"], demo_lexicon, "n")


def test_max_readings_truncates(scope_lexicon):
    options = ComposeOptions(max_readings=1)
    readings = compute_readings(FLAGSHIP_WORDS, scope_lexicon, "S", options)
    assert len(readings) == 1


# ---------------------------------------------------------------------------
# pipeline invariants


def test_readings_are_closed_normal_propositions(demo_lexicon, corpus):
    for entry in corpus["sentences"]:
        words = entry["sentence"].split()
        for reading in compute_readings(words, demo_lexicon, "S"):
            term = reading.formula_term
            assert free_vars(term) == set()
            assert alpha_eq(normalize(term, BETA), term)
            assert type_of(term, {}) == T


def test_used_coercions_come_from_the_phrase(demo_lexicon, corpus):
    for entry in corpus["sentences"]:
        words = entry["sentence"].split()
        offered = set(phrase_coercions(demo_lexicon, words))
        for reading in compute_readings(words, demo_lexicon, "S"):
            assert set(reading.coercions_used()) <= offered


def test_no_reading_mixes_a_rigid_coercion_with_siblings(demo_lexicon, corpus):
    for entry in corpus["sentences"]:
        words = entry["sentence"].split()
        for reading in compute_readings(words, demo_lexicon, "S"):
            by_owner = {}
            for c in reading.coercions_used():
                by_owner.setdefault(c.owner, set()).add(c)
            for members in by_owner.values():
                if any(c.rigid for c in members):
                    assert len(members) == 1


def test_blocking_is_monotone(demo_lexicon):
    # Flipping a used FLEXIBLE coercion to RIGID can only remove readings.
    words = "this book is heavy and interesting".split()
    before = compute_readings(words, demo_lexicon, "S")
    assert len(before) == 1
    doc = lexicon_to_document(demo_lexicon)
    for w in doc["words"]:
        if w["word"] == "book":
            for c in w["coercions"]:
                if c["name"] == "phys_of":
                    c["rigid"] = True
    stricter, _ = load_lexicon(json.dumps(doc))
    after = compute_readings(words, stricter, "S")
    assert len(after) <= len(before)
    assert after == []


def test_plain_pipeline_agrees_on_single_sorted_lexicon(scope_lexicon):
    # With no coercions and everything at sort e, the full pipeline is
    # exactly parse + substitute + reduce + dedup.
    manual = {}
    for parse in enumerate_parses(scope_lexicon, FLAGSHIP_WORDS, "S"):
        term = normalize(substitute_lexical(parse, scope_lexicon), BETA)
        manual.setdefault(
            canonical_key(normalize(term, BETA_ETA_LONG)), term)
    readings = compute_readings(FLAGSHIP_WORDS, scope_lexicon, "S")
    assert reading_keys(readings) == sorted(manual)


def test_readings_deduplicate_provenances(scope_lexicon):
    readings = compute_readings(FLAGSHIP_WORDS, scope_lexicon, "S")
    for reading in readings:
        assert len(reading.provenances) >= 1
        assert reading.parse is reading.provenances[0].parse


def test_rendered_formula_matches_corpus(demo_lexicon, corpus):
    by_sentence = {e["sentence"]: e for e in corpus["sentences"]}
    entry = by_sentence["every kid watched a cartoon"]
    readings = compute_readings(FLAGSHIP_WORDS, demo_lexicon, "S")
    got = [render(to_formula(r.formula_term), UNICODE) for r in readings]
    assert got == [r["formula_unicode"] for r in entry["readings"]]


# ---------------------------------------------------------------------------
# reading identity

# In this lexicon n and adj both denote e -> t, so "is" at (np\S)/adj
# with "red" at adj, and "is" at (np\S)/n with "red" at n, are two sense
# assignments with one derivational term and two meanings.
COPULA = "\\P:(e -> t). \\x:e. (P x)"
RED_POOL = {
    "john": [("np", "john:e")],
    "is": [("(np \\ S) / adj", COPULA), ("(np \\ S) / n", COPULA),
           ("(np \\ S) / np", "\\y:e. \\x:e. ((same y) x)")],
    "red": [("adj", "\\x:e. (red_adj x)"), ("n", "\\x:e. (red_noun x)"),
            ("np", "red_np:e")],
}
JOHN_IS_RED = "john is red".split()


def red_lexicon(senses):
    doc = {"sorts": [], "poly_constants": [],
           "base_categories": [{"name": "adj", "sem_type": "e -> t"}],
           "words": [{"word": w, "senses": [{"category": c, "term": t}
                                            for c, t in pairs]}
                     for w, pairs in senses.items()]}
    return load_lexicon(json.dumps(doc))[0]


def test_one_derivational_term_two_readings():
    lexicon = red_lexicon({w: pool[:2] for w, pool in RED_POOL.items()})
    analysis = analyze(JOHN_IS_RED, lexicon)
    assert analysis.parse_count == 2
    assert [term_to_text(r.formula_term, annotate_constants=False)
            for r in analysis.readings] == ["(red_adj john)", "(red_noun john)"]


@st.composite
def sense_insertions(draw):
    """Sense lists for "john is red" drawn from RED_POOL, a word of the
    sentence, a pool sense that word lacks, and where to insert it."""
    word = draw(st.sampled_from(["is", "red"]))
    senses = {"john": RED_POOL["john"]}
    for w in ("is", "red"):
        pool = draw(st.permutations(RED_POOL[w]))
        senses[w] = pool[:draw(st.integers(1, len(pool) - (w == word)))]
    extra = draw(st.sampled_from([s for s in RED_POOL[word]
                                  if s not in senses[word]]))
    return senses, word, extra, draw(st.integers(0, len(senses[word])))


@given(sense_insertions())
@settings(max_examples=150, deadline=None)
def test_property_adding_a_sense_never_removes_a_reading(case):
    senses, word, extra, position = case
    before = reading_keys(compute_readings(JOHN_IS_RED, red_lexicon(senses)))
    grown = {**senses, word: senses[word][:position] + [extra]
             + senses[word][position:]}
    after = reading_keys(compute_readings(JOHN_IS_RED, red_lexicon(grown)))
    assert set(before) <= set(after)


CORPUS_SENTENCES = [e["sentence"] for e in json.loads(
    (DATA / "golden_corpus.json").read_text())["sentences"]]


@given(st.sampled_from(CORPUS_SENTENCES), st.sampled_from(CORPUS_SENTENCES))
@settings(max_examples=30, deadline=None)
def test_property_readings_do_not_depend_on_history(demo_lexicon, sentence,
                                                    between):
    first = analyze(sentence.split(), demo_lexicon).readings
    analyze(between.split(), demo_lexicon)
    again = analyze(sentence.split(), demo_lexicon).readings
    assert [r.formula_term for r in first] == [r.formula_term for r in again]


def test_analysis_draws_no_fresh_names(demo_lexicon):
    before = int(terms.fresh_name("n")[1:])
    for sentence in CORPUS_SENTENCES:
        analyze(sentence.split(), demo_lexicon)
    assert int(terms.fresh_name("n")[1:]) == before + 1


@given(st.sampled_from(SUBSTITUTION_SENTENCES))
@settings(max_examples=60, deadline=None)
def test_property_candidate_keys_match_reference(demo_lexicon, sentence):
    # Record each candidate `analyze` evaluates and the key it builds
    # from that evaluation.
    seen = []

    def evaluate(term):
        seen.append([term])
        return terms.evaluate(term)

    def key_text(term):
        seen[-1].append(terms.key_text(term))
        return seen[-1][-1]

    with mock.patch.object(composer, "evaluate", evaluate), \
            mock.patch.object(composer, "key_text", key_text):
        analyze(sentence.split(), demo_lexicon)
    for candidate, key in seen:
        beta_normal = termoracle.normalize(candidate, BETA)
        assert key == canonical_key(termoracle.normalize(beta_normal, BETA_ETA_LONG))
