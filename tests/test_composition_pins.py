"""Pinned output of lexical substitution, readings and lexicon serialization.

`composition_pins.json` holds, for each listed sentence, the sha256 of
`canonical_key(substitute_lexical(p, lexicon))` for every parse `p` in
`enumerate_parses` order over the demo lexicon, the sha256 of
`term_to_text(r.formula_term)` for every reading `r` of `analyze` (binder
names included; they are canonical, so a reading's digest does not
depend on what ran before it), and the sha256 of `lexicon_to_document`
for the demo and scope lexicons.  A refactor of sort resolution or
normalization must leave every digest unchanged.  A change that alters them on purpose regenerates the fixture
with

    PYTHONPATH=src python tests/test_composition_pins.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from lambeksem import (analyze, canonical_key, enumerate_parses,  # noqa: E402
                       lexicon_to_document, load_lexicon, load_lexicon_file,
                       substitute_lexical, term_to_text)

from conftest import DATA, SCOPE_DOCUMENT  # noqa: E402

PINS_PATH = TESTS / "composition_pins.json"


def _coordinations() -> list[str]:
    out = []
    for k in range(2, 5):
        adjs = (["heavy", "interesting"] * k)[:k]
        out.append("the dog barked" + " and barked" * (k - 1))
        out.append("this book is " + " and ".join(adjs))
        out.append("Washington " + " and ".join(["attacked Iraq"] * k))
        out.append("Washington " + " and ".join(
            ["borders the Potomac"] + ["attacked Iraq"] * (k - 1)))
    return out


def pinned_sentences() -> list[str]:
    corpus = json.loads((DATA / "golden_corpus.json").read_text())
    sentences = [e["sentence"] for e in corpus["sentences"]]
    sentences.append("every representative of a company of a company "
                     "of a company saw most samples")
    # Sharing substitution across parses touches these: two determiners
    # whose sorts their nouns fix, and a chain of 96 parses.
    sentences.append("the kid watched the cartoon")
    sentences.append("every representative of this company of the company "
                     "of the company of a company saw a samples")
    sentences.extend(_coordinations())
    return list(dict.fromkeys(sentences))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_digests(lexicon, sentence: str) -> list[str]:
    return [_digest(canonical_key(substitute_lexical(p, lexicon)))
            for p in enumerate_parses(lexicon, sentence.split(), "S")]


def reading_digests(lexicon, sentence: str) -> list[str]:
    readings = analyze(sentence.split(), lexicon).readings
    return [_digest(term_to_text(r.formula_term)) for r in readings]


def document_digest(lexicon) -> str:
    return _digest(json.dumps(lexicon_to_document(lexicon), sort_keys=True))


def _lexicons() -> dict:
    demo, _ = load_lexicon_file(str(DATA / "demo_lexicon.json"))
    scope, _ = load_lexicon(json.dumps(SCOPE_DOCUMENT))
    return {"demo": demo, "scope": scope}


def generate() -> dict:
    lexicons = _lexicons()
    return {
        "description": "sha256 of canonical_key(substitute_lexical(p)) per parse "
                       "of each sentence over data/demo_lexicon.json at goal S, "
                       "of term_to_text(r.formula_term) per reading of analyze "
                       "(canonical binder names b0, b1, ...), "
                       "and of json.dumps(lexicon_to_document(lex), sort_keys=True)",
        "sentences": [{"sentence": s, "parses": parse_digests(lexicons["demo"], s),
                       "readings": reading_digests(lexicons["demo"], s)}
                      for s in pinned_sentences()],
        "documents": {name: document_digest(lex) for name, lex in lexicons.items()},
    }


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {
    "sentences": [], "documents": {}}


def test_pins_cover_the_listed_sentences():
    assert [e["sentence"] for e in PINS["sentences"]] == pinned_sentences()


@pytest.mark.parametrize("entry", PINS["sentences"], ids=lambda e: e["sentence"])
def test_substitution_is_pinned(demo_lexicon, entry):
    assert parse_digests(demo_lexicon, entry["sentence"]) == entry["parses"]


@pytest.mark.parametrize("entry", PINS["sentences"], ids=lambda e: e["sentence"])
def test_reading_binder_names_are_pinned(demo_lexicon, entry):
    assert reading_digests(demo_lexicon, entry["sentence"]) == entry["readings"]


def test_documents_are_pinned(demo_lexicon, scope_lexicon):
    got = {"demo": document_digest(demo_lexicon),
           "scope": document_digest(scope_lexicon)}
    assert got == PINS["documents"]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
