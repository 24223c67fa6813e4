"""Readings checked by meaning: every candidate of a sentence, read with
its coercions applied where its sites are, and the reading it became
have the same truth value in every sampled finite model
(`tests/modeloracle.py`).  The candidate is substituted both by the
package and by the per-parse reference (`tests/substoracle.py`), so a
fault in how substitution unfolds definitions shows too."""

import random
import sys

import pytest

from lambeksem import analyze, substitute_lexical

import modeloracle
import substoracle
from conftest import DATA
from test_composer import CORPUS_SENTENCES

sys.path.insert(0, str(DATA.parent / "bench"))
import workloads  # noqa: E402

MODEL_SEEDS = range(4)
SENTENCES = list(dict.fromkeys(
    CORPUS_SENTENCES
    + [item.key for item in workloads.np_items(random.Random(1))]
    + [item.key for item in workloads.coord_items(random.Random(1))]))


@pytest.mark.parametrize("sentence", SENTENCES)
def test_candidates_and_readings_agree_in_finite_models(demo_lexicon, sentence):
    models = [modeloracle.Model(seed) for seed in MODEL_SEEDS]
    for reading in analyze(sentence.split(), demo_lexicon).readings:
        truths = [m.truth(reading.formula_term) for m in models]
        for provenance in reading.provenances:
            repairs = {site.location: chain for site, chain in provenance.choices}
            for substitute in (substitute_lexical, substoracle.substitute_lexical):
                candidate = substitute(provenance.parse, demo_lexicon)
                assert [m.truth(candidate, repairs) for m in models] == truths
