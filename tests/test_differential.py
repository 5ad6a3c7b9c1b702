"""Differential checks of the integer-coded chart parser.

Class sequences under random grammars are parsed by a parser whose rule
table is kept warm across examples and by a fresh one, and compared with the
brute-force oracle, verdicts, derivable categories and derivation trees
alike.  Half the sequences are short templates of the grammar,
some with one class replaced, because uniformly random sequences almost
never parse.  The labelled parse pool of the benchmark covers lengths 11-20,
beyond the oracle's reach.
"""

import json
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from alforge.grammars import LEXICAL_CLASSES, enumerate_grammars, grammar_by_id
from alforge.parser import MAX_DERIVATIONS, ChartParser, derivation_check
from alforge.templates import enumerate_templates

from oracle import as_tuple, leaves, oracle_derivable, oracle_derivations, oracle_grammatical

POOL = Path(__file__).parent.parent / "perfbench" / "refs" / "parse_mix_pool.jsonl"

GRAMMARS = enumerate_grammars()
MAX_LEN = 6

classes_any = st.sampled_from(LEXICAL_CLASSES)


@lru_cache(maxsize=None)
def warm_parser(params: str) -> ChartParser:
    return ChartParser(grammar_by_id(params).policy)


@lru_cache(maxsize=None)
def short_templates(params: str) -> list:
    return enumerate_templates(grammar_by_id(params), MAX_LEN)


@st.composite
def grammar_and_classes(draw):
    g = draw(st.sampled_from(GRAMMARS))
    if draw(st.booleans()):
        return g, draw(st.lists(classes_any, min_size=1, max_size=MAX_LEN))
    classes = list(draw(st.sampled_from(short_templates(g.params))))
    if draw(st.booleans()):
        classes[draw(st.integers(0, len(classes) - 1))] = draw(classes_any)
    return g, classes


@settings(max_examples=300, deadline=None)
@given(case=grammar_and_classes())
def test_parser_matches_oracle(case):
    g, classes = case
    seq = g.categorize(classes)
    permuting = g.policy.permutes(g.policy.rel_category in seq)
    want = oracle_grammatical(g, classes)
    warm = warm_parser(g.params)
    fresh = ChartParser(g.policy)

    assert warm.parse(seq).grammatical == want
    assert warm.derivable(seq) == fresh.derivable(seq) == oracle_derivable(seq, permuting)

    result = fresh.parse(seq, derivations=True)
    assert result.grammatical == want
    assert bool(result.derivations) == want
    assert all(derivation_check(d) for d in result.derivations)
    assert all(leaves(d) == list(seq) for d in result.derivations)
    assert_oracle_derivations(seq, permuting, result.derivations)


def assert_oracle_derivations(seq, permuting, derivations):
    """The parser's trees are distinct oracle trees, and all of them unless
    the oracle finds at least ``MAX_DERIVATIONS``."""
    want = oracle_derivations(seq, permuting)
    got = [as_tuple(d) for d in derivations]
    assert len(set(got)) == len(got) == min(len(want), MAX_DERIVATIONS)
    assert set(got) <= set(want)


def test_rotated_coordination_derivations():
    # Two verbs coordinate as they stand, or rotated to (S/NP_SUBJ)/NP_OBJ
    # and permuted back: both trees come back, whatever the codes' order.
    g = grammar_by_id("1101111")
    seq = g.categorize("VT CONJ VT NP SUBJ NP ADJ OBJ".split())
    derivations = ChartParser(g.policy).parse(seq, derivations=True).derivations
    assert len(derivations) == 2
    assert_oracle_derivations(seq, True, derivations)


def test_parse_pool_labels():
    parsers: dict[str, ChartParser] = {}
    wrong = []
    for line in POOL.read_text().splitlines():
        item = json.loads(line)
        g = grammar_by_id(item["grammar"])
        parser = parsers.setdefault(g.params, ChartParser(g.policy))
        classes = item["classes"].split()
        if parser.parse(g.categorize(classes)).grammatical != item["label"]:
            wrong.append((g.params, item["classes"]))
    assert not wrong, wrong[:5]
    assert len(parsers) > 1
