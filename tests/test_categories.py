"""Category algebra: construction, formatting, permutation, variables,
cached hashes."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from alforge.categories import (
    BACKWARD,
    FORWARD,
    NP,
    NP_OBJ,
    NP_SUBJ,
    S,
    SCOMP,
    Category,
    Functor,
    Restrictions,
    Variable,
    contains_variable,
    format_category,
    is_conjunction,
    parse_category,
)
from alforge.parser import rotations

primitives = st.sampled_from([S, NP, NP_SUBJ, NP_OBJ, SCOMP])
slashes = st.sampled_from([FORWARD, BACKWARD])
restrictions = st.builds(
    Restrictions,
    no_composition=st.booleans(),
    no_permutation=st.booleans(),
    no_crossing=st.booleans(),
)


def categories(max_depth=3, leaves=primitives):
    return st.recursive(
        leaves,
        lambda inner: st.builds(Functor, inner, slashes, inner, restrictions),
        max_leaves=max_depth,
    )


class TestFormatting:
    def test_primitive_round_trip(self):
        assert parse_category("NP_SUBJ") == NP_SUBJ
        assert format_category(S) == "S"

    def test_english_verb(self):
        vt = parse_category("(S\\NP_SUBJ)/NP_OBJ")
        assert vt == Functor(Functor(S, BACKWARD, NP_SUBJ), FORWARD, NP_OBJ)
        assert format_category(vt) == "(S\\NP_SUBJ)/NP_OBJ"

    def test_restriction_annotations(self):
        adj = parse_category("NP/,NP")
        assert adj.restrictions.no_composition
        conj = parse_category("(var\\.,@var)/.,@var")
        assert is_conjunction(conj)
        assert format_category(conj) == "(var\\.,@var)/.,@var"

    @given(categories())
    def test_round_trip(self, cat):
        assert parse_category(format_category(cat)) == cat

    def test_malformed_inputs(self):
        for text in ("", "S/", "(S\\NP", "S//NP", "NP/_NP"):
            with pytest.raises(ValueError):
                parse_category(text)


def _spine(c: Category) -> tuple[Category, int]:
    """(innermost result, arity) of ``c``."""
    n = 0
    while isinstance(c, Functor):
        c, n = c.result, n + 1
    return c, n


class TestPermutation:
    def test_transitive_verb_rotation(self):
        vt = parse_category("(S\\NP_SUBJ)/NP_OBJ")
        assert [format_category(r) for r in rotations(vt)] == ["(S/NP_OBJ)\\NP_SUBJ"]

    def test_orbit_returns_home(self):
        vt = parse_category("(S\\NP_SUBJ)/NP_OBJ")
        assert rotations(rotations(vt)[0]) == [vt]

    def test_primitive_rejected(self):
        assert rotations(S) == []

    @given(categories())
    def test_preserves_arity_and_innermost(self, cat):
        for rotated in rotations(cat):
            assert _spine(rotated) == _spine(cat)

    @given(categories())
    def test_orbit_size_bounded(self, cat):
        chain = rotations(cat)
        assert len(chain) <= max(_spine(cat)[1] - 1, 0)
        assert cat not in chain


class TestUnification:
    def test_contains_variable(self):
        assert contains_variable(Functor(Variable(), FORWARD, NP))
        assert not contains_variable(Functor(S, FORWARD, NP))


def _rebuilt(c: Category) -> Category:
    """Structural copy built bottom-up, sharing no node with ``c``."""
    if isinstance(c, Functor):
        return Functor(_rebuilt(c.result), c.slash, _rebuilt(c.argument), c.restrictions)
    return dataclasses.replace(c)


def _has_variable(c: Category) -> bool:
    if isinstance(c, Variable):
        return True
    if isinstance(c, Functor):
        return _has_variable(c.result) or _has_variable(c.argument)
    return False


with_variables = categories(leaves=st.one_of(primitives, st.just(Variable())))

_PICKLE_SCRIPT = """
import pickle, sys
from alforge.categories import parse_category
cats = [parse_category(t) for t in sys.argv[1:]]
sys.stdout.write(pickle.dumps((cats, [hash(c) for c in cats])).hex())
"""


class TestCachedHash:
    @given(categories())
    def test_routes_agree(self, cat):
        for other in (parse_category(format_category(cat)), _rebuilt(cat)):
            assert other == cat
            assert hash(other) == hash(cat)
        for rotated in rotations(cat):
            assert _rebuilt(rotated) == rotated
            assert hash(_rebuilt(rotated)) == hash(rotated)

    @given(with_variables)
    def test_replace(self, cat):
        if isinstance(cat, Functor):
            slash = BACKWARD if cat.slash == FORWARD else FORWARD
            flipped = dataclasses.replace(cat, slash=slash)
            direct = Functor(cat.result, slash, cat.argument, cat.restrictions)
            assert flipped == direct
            assert hash(flipped) == hash(direct)

    @given(with_variables)
    def test_contains_variable_matches_recursion(self, cat):
        assert contains_variable(cat) == _has_variable(cat)

    def test_pickle_from_other_hash_seed(self):
        texts = ["S", "NP_SUBJ", "(S\\NP_SUBJ)/NP_OBJ", "(var\\.,@var)/.,@var"]
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, *texts],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        loaded, remote_hashes = pickle.loads(bytes.fromhex(out))
        local = [parse_category(t) for t in texts]
        # str hashes are salted per process, so the remote cached hashes differ
        assert remote_hashes != [hash(c) for c in local]
        assert loaded == local
        assert [hash(c) for c in loaded] == [hash(c) for c in local]
        assert {c: i for i, c in enumerate(local)} == {c: i for i, c in enumerate(loaded)}
