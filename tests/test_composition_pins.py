"""Pinned output of lexical substitution and lexicon serialization.

`composition_pins.json` holds, for each listed sentence, the sha256 of
`canonical_key(substitute_lexical(p, lexicon))` for every parse `p` in
`enumerate_parses` order over the demo lexicon, and the sha256 of
`lexicon_to_document` for the demo and scope lexicons.  A refactor of
sort resolution must leave every digest unchanged.  A change that alters
them on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_composition_pins.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from lambeksem import (canonical_key, enumerate_parses, lexicon_to_document,  # noqa: E402
                       load_lexicon, load_lexicon_file, substitute_lexical)

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
    sentences.extend(_coordinations())
    return list(dict.fromkeys(sentences))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_digests(lexicon, sentence: str) -> list[str]:
    return [_digest(canonical_key(substitute_lexical(p, lexicon)))
            for p in enumerate_parses(lexicon, sentence.split(), "S")]


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
                       "and of json.dumps(lexicon_to_document(lex), sort_keys=True)",
        "sentences": [{"sentence": s, "parses": parse_digests(lexicons["demo"], s)}
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


def test_documents_are_pinned(demo_lexicon, scope_lexicon):
    got = {"demo": document_digest(demo_lexicon),
           "scope": document_digest(scope_lexicon)}
    assert got == PINS["documents"]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
