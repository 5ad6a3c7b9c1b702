"""Rule schemata: application, composition (plain and crossed), coordination."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from alforge.categories import (
    NP,
    NP_OBJ,
    NP_SUBJ,
    S,
    SCOMP,
    Functor,
    Variable,
    format_category,
    parse_category,
)
from alforge.combinators import (
    BINARY_RULES,
    apply_backward,
    apply_forward,
    compose_backward,
    compose_backward_crossing,
    compose_forward,
    compose_forward_crossing,
    coordinate,
    is_case_marker,
)
from alforge.grammars import enumerate_grammars
from alforge.parser import rotations
from alforge.templates import category_universe

from oracle import _binary_results, _rotate_once, _rotation_closure
from test_categories import categories, restrictions, slashes

CONJ = parse_category("(var\\.,@var)/.,@var")


class TestApplication:
    def test_forward(self):
        vt = parse_category("(S\\NP)/NP")
        assert apply_forward(vt, NP) == parse_category("S\\NP")

    def test_forward_adjective(self):
        assert apply_forward(parse_category("NP/NP"), NP) == NP

    def test_forward_wrong_direction(self):
        assert apply_forward(parse_category("S\\NP"), NP) is None

    def test_backward(self):
        assert apply_backward(NP, parse_category("S\\NP")) == S
        marker = parse_category("NP_SUBJ\\,NP")
        assert apply_backward(NP, marker) == NP_SUBJ

    def test_backward_wrong_direction(self):
        assert apply_backward(NP, parse_category("S/NP")) is None

    def test_argument_mismatch(self):
        assert apply_forward(parse_category("S/NP_OBJ"), NP) is None


class TestComposition:
    def test_forward(self):
        comp = parse_category("SCOMP/S")
        gap = parse_category("S/NP_OBJ")
        assert compose_forward(comp, gap) == parse_category("SCOMP/NP_OBJ")

    def test_forward_blocked_by_comma(self):
        adj = parse_category("NP/,NP")
        assert compose_forward(adj, parse_category("NP/NP")) is None

    def test_forward_blocks_comma_on_secondary(self):
        assert compose_forward(parse_category("S/NP"), parse_category("NP/,NP")) is None

    def test_forward_direction_mismatch(self):
        assert compose_forward(parse_category("NP/NP"), parse_category("S\\NP")) is None

    def test_backward(self):
        mod = parse_category("NP\\NP")
        vi = parse_category("S\\NP")
        assert compose_backward(mod, vi) == parse_category("S\\NP")

    def test_backward_relative_spine(self):
        rel_phrase = parse_category("NP_SUBJ\\NP_SUBJ")
        vi = parse_category("S\\NP_SUBJ")
        assert compose_backward(rel_phrase, vi) == parse_category("S\\NP_SUBJ")

    def test_backward_direction_mismatch(self):
        assert compose_backward(parse_category("NP\\NP"), parse_category("S/NP")) is None

    def test_result_keeps_secondary_restrictions(self):
        out = compose_forward(parse_category("S/NP"), parse_category("NP/@NP"))
        assert format_category(out) == "S/@NP"


class TestCrossedComposition:
    def test_forward_crossing(self):
        comp = parse_category("SCOMP/S")
        gap = parse_category("S\\NP_OBJ")
        assert compose_forward_crossing(comp, gap) == parse_category("SCOMP\\NP_OBJ")

    def test_backward_crossing(self):
        gap = parse_category("S/NP_OBJ")
        comp = parse_category("SCOMP\\S")
        assert compose_backward_crossing(gap, comp) == parse_category("SCOMP/NP_OBJ")

    def test_blocked_by_period(self):
        comp = parse_category("SCOMP/.S")
        assert compose_forward_crossing(comp, parse_category("S\\NP_OBJ")) is None

    def test_blocked_by_period_on_secondary(self):
        gap = parse_category("S\\.NP_OBJ")
        assert compose_forward_crossing(parse_category("SCOMP/S"), gap) is None
        assert compose_forward(parse_category("SCOMP/S"), parse_category("S/.NP_OBJ")) is not None

    def test_blocked_by_comma(self):
        assert compose_forward_crossing(
            parse_category("NP/,NP"), parse_category("NP\\NP")
        ) is None

    def test_plain_composition_ignores_period(self):
        comp = parse_category("SCOMP/.S")
        assert compose_forward(comp, parse_category("S/NP_OBJ")) is not None


class TestCoordination:
    def test_nominal(self):
        assert coordinate(NP, CONJ, NP) == NP

    def test_verb_phrase(self):
        vi = parse_category("S\\NP_SUBJ")
        assert coordinate(vi, CONJ, vi) == vi

    def test_mismatch(self):
        assert coordinate(NP, CONJ, S) is None

    def test_requires_conjunction(self):
        assert coordinate(NP, parse_category("NP/NP"), NP) is None

    def test_symmetry(self):
        for a, b in ((NP, S), (NP, NP), (parse_category("S\\NP"), S)):
            one = coordinate(a, CONJ, b)
            other = coordinate(b, CONJ, a)
            assert (one is None) == (other is None)
            assert one == other or one is None

    def test_rejects_case_markers(self):
        marker = parse_category("NP_SUBJ\\,NP")
        assert is_case_marker(marker)
        assert coordinate(marker, CONJ, marker) is None

    def test_rejects_non_ground(self):
        v = Variable()
        assert coordinate(v, CONJ, v) is None


class TestRuleProperties:
    def test_no_variable_outputs(self):
        cats = {cat for g in enumerate_grammars() for _, cat in g.lexicon}
        for a in cats:
            for b in cats:
                for _, fn in BINARY_RULES:
                    out = fn(a, b)
                    if out is not None:
                        assert not format_category(out).count("var")

    def test_application_composition_coherence(self):
        """compose then apply equals apply then apply, over the lexicons."""
        prims = [S, NP, NP_SUBJ, NP_OBJ, SCOMP]
        cats = {cat for g in enumerate_grammars() for _, cat in g.lexicon}
        checked = 0
        for f in cats:
            for g in cats:
                h = compose_forward(f, g)
                if h is None:
                    continue
                for x in prims:
                    y = apply_forward(g, x)
                    if y is None:
                        continue
                    assert apply_forward(h, x) == apply_forward(f, y)
                    checked += 1
        assert checked > 0

    def test_rules_are_pure(self):
        vt = parse_category("(S\\NP_SUBJ)/NP_OBJ")
        first = apply_forward(vt, NP_OBJ)
        second = apply_forward(vt, NP_OBJ)
        assert first == second
        assert vt == parse_category("(S\\NP_SUBJ)/NP_OBJ")


def _rule_results(a, b) -> set:
    return {fn(a, b) for _, fn in BINARY_RULES} - {None}


@lru_cache(maxsize=None)
def grammar_universe() -> tuple:
    """The distinct categories of every grammar's universe, permutation on."""
    cats = set()
    for g in enumerate_grammars():
        cats |= category_universe(g, True)[0]
    return tuple(sorted(cats, key=format_category))


@st.composite
def linked_pairs(draw):
    """Random category pairs; in half of them one category's result is the
    other's argument, in either order, so the composition rules fire."""
    a, b = draw(categories()), draw(categories())
    if isinstance(a, Functor) and draw(st.booleans()):
        b = Functor(a.argument, draw(slashes), b, draw(restrictions))
    return (b, a) if draw(st.booleans()) else (a, b)


def _oracle_chain(c) -> list:
    """``_rotate_once`` iterated from ``c`` until it stops or repeats."""
    out = []
    cur = _rotate_once(c)
    while cur is not None and cur != c and cur not in out:
        out.append(cur)
        cur = _rotate_once(cur)
    return out


class TestAgainstOracle:
    """The rule schemata against the independent re-implementation in
    ``tests/oracle.py``: every ordered pair of the categories the 96 grammars
    build, and random categories with restriction mixes no grammar builds."""

    def test_universe_pairs(self):
        cats = grammar_universe()
        assert len(cats) == 69
        wrong = [(a, b) for a in cats for b in cats if _rule_results(a, b) != _binary_results(a, b)]
        assert not wrong, wrong[:5]

    def test_universe_rotations(self):
        for c in grammar_universe():
            assert {c, *rotations(c)} == _rotation_closure({c}, True), c

    def test_chain_order(self):
        # The chain's order decides code numbers and derivation order, so it
        # is pinned step by step, not as a set.
        cats = {c for g in enumerate_grammars() for permuting in (False, True)
                for c in category_universe(g, permuting)[0]}
        cats |= {parse_category(text) for text in (
            "((S\\NP_SUBJ)/NP_OBJ)/SCOMP",
            "((S\\NP_SUBJ)/@NP_OBJ)/SCOMP",
            "(((S\\NP_SUBJ)/NP_OBJ)/SCOMP)/NP",
            "(((S\\NP_SUBJ)/NP_OBJ)/@SCOMP)\\NP",
            "((S/NP)/NP)/NP",
            "((S/NP)\\NP)/NP",
            "(((S/NP)\\NP)/NP)\\NP",
        )}
        chains = {c: rotations(c) for c in cats}
        assert {c: _oracle_chain(c) for c in cats} == chains
        assert max(len(chain) for chain in chains.values()) == 3

    @settings(max_examples=500, deadline=None)
    @given(linked_pairs())
    def test_random_pairs(self, pair):
        a, b = pair
        assert _rule_results(a, b) == _binary_results(a, b)
        assert {a, *rotations(a)} == _rotation_closure({a}, True)
