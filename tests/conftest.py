import copy
import json
import pathlib
import sys

import pytest

from lambeksem import load_lexicon, load_lexicon_file

TESTS = pathlib.Path(__file__).resolve().parent
DATA = TESTS.parent / "data"
sys.path.insert(0, str(TESTS))

# The five-word unsorted lexicon behind the two-reading example: one
# generalized quantifier taking its scope to the right, one to the left,
# a transitive verb, and two nouns.  Everything lives at plain e, so no
# coercion machinery can trigger.
SCOPE_DOCUMENT = {
    "sorts": [],
    "base_categories": [
        {"name": "np", "sem_type": "e"},
        {"name": "n", "sem_type": "e -> t"},
        {"name": "S", "sem_type": "t"},
    ],
    "poly_constants": [],
    "words": [
        {
            "word": "every",
            "senses": [{
                "category": "(S / (np \\ S)) / n",
                "term": "\\P:(e -> t). \\Q:(e -> t). "
                        "(forall (\\x:e. ((implies (P x)) (Q x))))",
                "quantifier": True,
            }],
        },
        {
            "word": "kid",
            "senses": [{"category": "n", "term": "\\x:e. (kid x)"}],
        },
        {
            "word": "watched",
            "senses": [{
                "category": "(np \\ S) / np",
                "term": "\\y:e. \\x:e. ((watched y) x)",
            }],
        },
        {
            "word": "a",
            "senses": [{
                "category": "((S / np) \\ S) / n",
                "term": "\\P:(e -> t). \\Q:(e -> t). "
                        "(exists (\\x:e. ((and (P x)) (Q x))))",
                "quantifier": True,
            }],
        },
        {
            "word": "cartoon",
            "senses": [{"category": "n", "term": "\\x:e. (cartoon x)"}],
        },
    ],
}


def scope_document() -> dict:
    """Fresh mutable copy for tests that edit the document."""
    return copy.deepcopy(SCOPE_DOCUMENT)


@pytest.fixture(scope="session")
def demo_lexicon():
    lexicon, diagnostics = load_lexicon_file(str(DATA / "demo_lexicon.json"))
    assert not [d for d in diagnostics if d.severity == "error"]
    return lexicon


@pytest.fixture(scope="session")
def scope_lexicon():
    lexicon, diagnostics = load_lexicon(json.dumps(SCOPE_DOCUMENT))
    assert not [d for d in diagnostics if d.severity == "error"]
    return lexicon


@pytest.fixture(scope="session")
def corpus():
    return json.loads((DATA / "golden_corpus.json").read_text())
