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
from itertools import accumulate
from pathlib import Path

from hypothesis import given, settings, strategies as st

from alforge import parser as parser_module
from alforge.categories import S, contains_variable
from alforge.grammars import LEXICAL_CLASSES, enumerate_grammars, grammar_by_id
from alforge.parser import MAX_DERIVATIONS, ChartParser, derivation_check
from alforge.templates import enumerate_templates, grammatical_sequences

from oracle import (
    as_tuple,
    chart_derivable,
    derivation_leaves,
    oracle_derivable,
    oracle_derivations,
    oracle_grammatical,
)

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
    permuting = g.policy is None or g.policy in seq
    want = oracle_grammatical(g, classes)
    warm = warm_parser(g.params)
    fresh = ChartParser(g.policy)

    assert warm.parse(seq).grammatical == want
    assert (chart_derivable(warm, seq) == chart_derivable(fresh, seq)
            == oracle_derivable(seq, permuting))

    result = fresh.parse(seq, derivations=True)
    assert result.grammatical == want
    assert bool(result.derivations) == want
    assert all(derivation_check(d) and derivation_leaves(d) == list(seq)
               for d in result.derivations)
    assert_oracle_derivations(seq, permuting, result.derivations)


def assert_oracle_derivations(seq, permuting, derivations):
    """The parser's trees are distinct oracle trees, and all of them unless
    the oracle finds at least ``MAX_DERIVATIONS``."""
    want = oracle_derivations(seq, permuting)
    got = [as_tuple(d) for d in derivations]
    assert len(set(got)) == len(got) == min(len(want), MAX_DERIVATIONS)
    assert set(got) <= set(want)


def test_every_short_sentence_derivations():
    """Exhaustive small-scope sweep: for every grammatical class sequence of
    length <= 7 of each of the 96 grammars, the warm parser's derivation set
    equals the oracle's.  The input set is ``grammatical_sequences``; it is
    the whole grammatical language only because
    ``tests/test_templates.py::TestPruning`` checks it against
    ``oracle.reference_language``.  Rare inputs, such as two rotation chains
    meeting in one cell, are all reached here, where the sampled test above
    may miss them."""
    swept = 0
    for g in GRAMMARS:
        parser = warm_parser(g.params)
        for seqs in grammatical_sequences(g, 7).values():
            for classes in sorted(seqs):
                seq = g.categorize(classes)
                permuting = g.policy is None or g.policy in seq
                assert_oracle_derivations(
                    seq, permuting, parser.parse(seq, derivations=True).derivations)
                swept += 1
    assert swept == 5352


def test_one_edit_neighbourhood_verdicts():
    """Exhaustive small-scope sweep of verdicts: for each of the 96
    grammars, every sequence one class substitution or one deletion away
    from a grammatical sequence of length <= 6 (the language itself
    included) parses exactly when it is in ``grammatical_sequences``.  That
    reference is the whole grammatical language only because
    ``tests/test_templates.py::TestPruning`` checks it against
    ``oracle.reference_language``; the near misses here are the inputs on
    which a parser defect flips a verdict.  Most of them fail the balance
    test that ``parse`` runs before the chart; for those the raw chart
    (``chart_derivable``) is checked too, so every input still reaches it."""
    swept = 0
    unbalanced = 0
    wrong = []
    for g in GRAMMARS:
        parser = warm_parser(g.params)
        lang = grammatical_sequences(g, MAX_LEN)
        near = set()
        for seq in set().union(*lang.values()):
            for i in range(len(seq)):
                near.update(seq[:i] + (c,) + seq[i + 1:] for c in LEXICAL_CLASSES)
                if len(seq) > 1:
                    near.add(seq[:i] + seq[i + 1:])
        for classes in sorted(near):
            seq = g.categorize(classes)
            want = classes in lang[len(classes)]
            if not parser._balanced(parser._encode(seq)):
                unbalanced += 1
                if (S in chart_derivable(parser, seq)) != want:
                    wrong.append((g.params, classes, "chart"))
            if parser.parse(seq).grammatical != want:
                wrong.append((g.params, classes))
        swept += len(near)
    assert not wrong, wrong[:5]
    assert swept == 89256
    assert unbalanced > 0


def test_rotated_coordination_derivations():
    # Two verbs coordinate as they stand, or rotated to (S/NP_SUBJ)/NP_OBJ
    # and permuted back: both trees come back, whatever the codes' order.
    g = grammar_by_id("1101111")
    seq = g.categorize("VT CONJ VT NP SUBJ NP ADJ OBJ".split())
    derivations = ChartParser(g.policy).parse(seq, derivations=True).derivations
    assert len(derivations) == 2
    assert_oracle_derivations(seq, True, derivations)


def test_coordination_mutant_is_caught(monkeypatch):
    """Mutant check of coordination by construction: a ``coordinable`` that
    also lets case markers coordinate makes the chart accept a sentence the
    oracle rejects, so the comparison above would fail on it."""
    g = grammar_by_id("0101101")
    classes = "NP SUBJ CONJ SUBJ VI".split()
    seq = g.categorize(classes)
    assert not oracle_grammatical(g, classes)
    assert not ChartParser(g.policy).parse(seq).grammatical
    monkeypatch.setattr("alforge.parser.coordinable", lambda c: not contains_variable(c))
    assert ChartParser(g.policy).parse(seq).grammatical


def test_balance_mutant_is_caught(monkeypatch):
    """Mutant check of the balance test: a one-conjunction scan that reads
    prefixes of the left part where the conjunct is a suffix of it rejects a
    sentence the oracle and the chart accept, so the sweeps would fail on it."""
    g = grammar_by_id("0000000")
    classes = "NP SUBJ VI CONJ VI".split()
    seq = g.categorize(classes)
    assert oracle_grammatical(g, classes)
    assert ChartParser(g.policy).parse(seq).grammatical

    def balanced_by_prefixes(self, codes):
        bal = self.table.balances
        try:
            return sum(map(bal.__getitem__, codes)) == parser_module._S_BALANCE
        except TypeError:
            pass
        loose = [i for i, a in enumerate(codes) if bal[a] is None]
        if len(loose) != 1 or not self.table.conjunctions >> codes[loose[0]] & 1:
            return True
        p = loose[0]
        left = [bal[a] for a in codes[:p]]  # the mutation: reversed() dropped
        right = [bal[a] for a in codes[p + 1:]]
        t = sum(left) + sum(right) - parser_module._S_BALANCE
        return t in accumulate(left) and t in accumulate(right)

    monkeypatch.setattr(ChartParser, "_balanced", balanced_by_prefixes)
    assert not ChartParser(g.policy).parse(seq).grammatical


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
