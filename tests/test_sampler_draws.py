"""Differential check of the samplers' random draws.

Every sampler draws with ``templates.picker``, which reproduces CPython's
``Random.choice`` and ``randrange`` from ``getrandbits`` words; it must draw
the same values and leave the generator in the same state as they do.

The Long sampler and the pair generator draw through the shared
``templates.unique_draws`` loop.  On runs that succeed they must return what
their own loops returned before (``tests/oracle.py``, which keeps the
loops' own tuple bodies of the extension operators, the heuristics and the
twins): the same random draws in the same order, so the same templates and
pairs.  The Long sampler now works on keys, so this also checks that key
order is tuple order where it draws.  The grammars cover both permutation
modes.
"""

import random
import sys
from functools import lru_cache

import pytest

from alforge.corpus import Lexicon, gen_minimal_pairs, sample_split
from alforge.grammars import enumerate_grammars
from alforge.parser import ChartParser
from alforge.templates import enumerate_templates, picker, sample_long_templates

from oracle import reference_long_templates, reference_minimal_pairs

# one grammar of each of the 12 blocks of 8, each at another position in its
# block, so that every setting of the last three parameters comes up
GRAMMARS = [enumerate_grammars()[8 * i + i % 8] for i in range(12)]
SEEDS = (1, 7, 23)
LEX = Lexicon.default()


PICK_SEEDS = range(50)
PICK_SIZES = range(1, 131)  # size 1 and every power of two up to 128


def test_pick_draws_as_random_choice_and_randrange():
    # ``picker`` depends on a private algorithm of the running Python,
    # ``Random._randbelow``; a Python that changes it fails here.
    for seed in PICK_SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        pick = picker(rng)
        got, want = [], []
        for n in [*PICK_SIZES, *reversed(PICK_SIZES)]:
            seq = [f"w{i}" for i in range(n)]
            got += [pick(seq), pick(range(n)), pick(tuple(seq))]
            want += [ref.choice(seq), ref.randrange(n), ref.choice(tuple(seq))]
            if n > 1:
                got.append(pick(range(1, n)))
                want.append(ref.randrange(1, n))
        assert got == want, (seed, sys.version)
        assert rng.getstate() == ref.getstate(), (seed, sys.version)


def test_pick_of_one_takes_a_word():
    rng, ref = random.Random(5), random.Random(5)
    before = rng.getstate()
    assert picker(rng)(["only"]) == ref.choice(["only"]) == "only"
    assert rng.getstate() == ref.getstate() != before


def test_pick_of_nothing_fails_as_choice_does():
    rng = random.Random(5)
    before = rng.getstate()
    with pytest.raises(IndexError):
        picker(rng)([])
    with pytest.raises(IndexError):
        random.Random(5).choice([])
    assert rng.getstate() == before


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
