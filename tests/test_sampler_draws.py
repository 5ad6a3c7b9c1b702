"""Differential check of the samplers' random draws.

The Long sampler and the pair generator draw through the shared
``templates.unique_draws`` loop.  On runs that succeed they must return what
their own loops returned before (``tests/oracle.py``): the same random draws
in the same order, so the same templates and pairs.  The grammars cover both
permutation modes.
"""

from functools import lru_cache

import pytest

from alforge.corpus import Lexicon, gen_minimal_pairs, sample_split
from alforge.grammars import enumerate_grammars
from alforge.parser import ChartParser
from alforge.templates import enumerate_templates, sample_long_templates

from oracle import reference_long_templates, reference_minimal_pairs

# one grammar of each of the 12 blocks of 8, each at another position in its
# block, so that every setting of the last three parameters comes up
GRAMMARS = [enumerate_grammars()[8 * i + i % 8] for i in range(12)]
SEEDS = (1, 7, 23)
LEX = Lexicon.default()


def test_grammars_cover_both_permutation_modes():
    assert len(GRAMMARS) == 12
    assert {g.policy is not None for g in GRAMMARS} == {True, False}


@lru_cache(maxsize=None)
def templates_to_8(params: str) -> list:
    return enumerate_templates(next(g for g in GRAMMARS if g.params == params), 8)


@pytest.mark.parametrize("g", GRAMMARS, ids=lambda g: g.params)
def test_long_draws_match_reference(g):
    parser = ChartParser(g.policy)
    for seed in SEEDS:
        args = (templates_to_8(g.params), g, 2, 11, 13, seed, parser)
        assert sample_long_templates(*args) == reference_long_templates(*args), seed


@pytest.mark.parametrize("g", GRAMMARS, ids=lambda g: g.params)
def test_pair_draws_match_reference(g):
    parser = ChartParser(g.policy)
    source = sample_split(g, templates_to_8(g.params), LEX, 3, (6, 8), seed=3, split="x")
    for seed in SEEDS:
        for kind in ("CaseType", "VerbType"):
            args = (g, kind, source, LEX, 4, seed, parser)
            assert gen_minimal_pairs(*args) == reference_minimal_pairs(*args), (seed, kind)
