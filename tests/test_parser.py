"""Chart parser: fixtures, derivation soundness, policy behavior, rule
table."""

import json
import random
from pathlib import Path

import pytest

from alforge.categories import (
    NP,
    S,
    is_conjunction,
    parse_category,
)
from alforge.combinators import RuleId, coordinable
from alforge.grammars import LEXICAL_CLASSES, enumerate_grammars, grammar_by_id
from alforge.parser import (
    MAX_DERIVATIONS,
    ChartParser,
    Derivation,
    _rule_results,
    balance,
    bits,
    derivation_check,
    rotations,
)
from alforge.templates import _extend, category_universe, enumerate_templates

from oracle import (
    as_tuple,
    chart_derivable,
    derivation_leaves,
    derivation_rules,
    oracle_derivations,
    reference_fill,
)

EN = grammar_by_id("0101101")
ALWAYS = None  # no REL category: always permutes

SHOWCASE_CLASSES = ("ADJ", "NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VI", "CONJ", "VI")


def en_parse(classes, **kw):
    return ChartParser(EN.policy).parse(EN.categorize(classes), **kw)


class TestFixtures:
    def test_transitive_sentence(self):
        seq = [NP, parse_category("(S\\NP)/NP"), NP]
        assert ChartParser(ALWAYS).parse(seq).grammatical

    def test_composed_modifier_sentence(self):
        seq = [
            NP,
            parse_category("(NP\\NP)/NP"),
            NP,
            parse_category("S\\NP"),
        ]
        assert ChartParser(ALWAYS).parse(seq).grammatical

    def test_coordinated_subjects(self):
        seq = [
            NP,
            parse_category("(var\\.,@var)/.,@var"),
            NP,
            parse_category("(S\\NP)/NP"),
            NP,
        ]
        assert ChartParser(ALWAYS).parse(seq).grammatical

    def test_object_relative_noun_phrase(self):
        seq = [
            NP,
            parse_category("(NP\\NP)/(S/NP)"),
            NP,
            parse_category("(S\\NP)/NP"),
        ]
        cats = chart_derivable(ChartParser(ALWAYS), seq)
        assert NP in cats
        assert S not in cats

    def test_full_derivation_example(self):
        result = en_parse(SHOWCASE_CLASSES, derivations=True)
        assert result.grammatical
        used = {
            RuleId.FWD_APP,
            RuleId.BWD_APP,
            RuleId.BWD_COMP,
            RuleId.COORD,
            RuleId.PERMUTE,
        }
        assert any(used <= derivation_rules(d) for d in result.derivations)

    def test_leading_marker_fails(self):
        assert not en_parse(("SUBJ", "NP")).grammatical


class TestDerivations:
    def test_replay_soundness(self):
        result = en_parse(SHOWCASE_CLASSES, derivations=True)
        assert result.derivations
        seq = EN.categorize(SHOWCASE_CLASSES)
        for tree in result.derivations:
            assert derivation_check(tree) and derivation_leaves(tree) == list(seq)

    def test_two_step_rotation(self):
        # The verb reaches S only by its second rotation, so the one tree
        # holds two PERMUTE nodes in a row: the chain walked past its first
        # entry.  No grammar's universe has a rotation chain longer than one.
        verb = parse_category("((S\\NP_SUBJ)\\NP_OBJ)\\SCOMP")
        seq = [*map(parse_category, ("NP_OBJ", "SCOMP", "NP_SUBJ")), verb]
        trees = ChartParser(ALWAYS).parse(seq, derivations=True).derivations
        assert len(trees) == 1 and derivation_check(trees[0])
        assert [as_tuple(t) for t in trees] == oracle_derivations(seq, True)
        node = trees[0].children[1].children[1].children[1]
        assert node.rule is node.children[0].rule is RuleId.PERMUTE
        assert node.children[0].children[0].category == verb

    def test_rotated_leaf_fails_against_input(self):
        # A permuted token cut to a bare leaf of the rotated category still
        # replays to S; only the input's categories expose it.
        def cut(node):
            if node.rule is RuleId.PERMUTE and not node.children[0].children:
                return Derivation(node.category)
            return Derivation(node.category, node.rule, tuple(map(cut, node.children)))

        seq = EN.categorize(SHOWCASE_CLASSES)
        trees = [cut(t) for t in en_parse(SHOWCASE_CLASSES, derivations=True).derivations]
        cut_trees = [t for t in trees if derivation_leaves(t) != list(seq)]
        assert cut_trees
        assert all(derivation_check(t) for t in cut_trees)

    def test_mutated_tree_fails(self):
        tree = en_parse(("NP", "SUBJ", "VI"), derivations=True).derivations[0]

        def mutate(node):
            if not node.children:
                return Derivation(S, node.rule, ())
            return Derivation(node.category, node.rule, (mutate(node.children[0]),) + node.children[1:])

        assert not derivation_check(mutate(tree))

    def test_forbidden_rotation_fails(self):
        # Each tree permutes a functor that ``rotations`` never rotates and
        # then applies it up to S; every other rule in it replays.
        def node(text, rule=None, *kids):
            return Derivation(parse_category(text), rule, kids)

        def permuted(text, rotated):
            cat = parse_category(text)
            assert rotations(cat) == []
            return Derivation(parse_category(rotated), RuleId.PERMUTE, (Derivation(cat),))

        fwd, bwd = RuleId.FWD_APP, RuleId.BWD_APP
        trees = {
            "@ blocks it": node("S", fwd, node(
                "S/@NP_OBJ", bwd, node("NP_SUBJ"),
                permuted("(S\\NP_SUBJ)/@NP_OBJ", "(S/@NP_OBJ)\\NP_SUBJ"),
            ), node("NP_OBJ")),
            "not a verb functor": node("S", bwd, node("NP", fwd, node(
                "NP/NP", bwd, node("NP"), permuted("(NP\\NP)/NP", "(NP/NP)\\NP"),
            ), node("NP")), node("S\\NP")),
            "arity 1": node("S", bwd, node("NP"), permuted("S\\NP", "S\\NP")),
        }
        for why, tree in trees.items():
            assert not derivation_check(tree), why

    def test_malformed_tree_raises(self):
        with pytest.raises(ValueError):
            derivation_check("not a tree")

    def test_extraction_cap(self):
        # Seven coordinated verbs bracket in Catalan(6) = 132 ways.
        classes = ("NP", "SUBJ", "VI") + ("CONJ", "VI") * 6
        seq = EN.categorize(classes)
        assert len(oracle_derivations(seq, True)) == 132
        result = en_parse(classes, derivations=True)
        assert len(set(result.derivations)) == len(result.derivations) == MAX_DERIVATIONS == 64
        for tree in result.derivations:
            assert derivation_check(tree) and derivation_leaves(tree) == list(seq)


class TestPolicy:
    def test_permutation_needed(self):
        seq = EN.categorize(("NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VI"))
        assert ChartParser(EN.policy).parse(seq).grammatical
        frozen = S  # S is never a token: never permutes
        assert not ChartParser(frozen).parse(seq).grammatical

    def test_disabling_never_adds(self):
        sov = grammar_by_id("0000000")
        on = ChartParser(ALWAYS)
        off = ChartParser(S)  # S is never a token: never permutes
        from itertools import product

        for classes in product(("NP", "SUBJ", "VT", "VI"), repeat=3):
            seq = sov.categorize(classes)
            if off.parse(seq).grammatical:
                assert on.parse(seq).grammatical

    def test_rel_conditional_policy(self):
        sov = grammar_by_id("0000000")
        with_rel = sov.categorize(("NP", "SUBJ", "REL"))
        without = sov.categorize(("NP", "SUBJ", "VI"))
        policy = sov.policy
        assert policy is None or policy in with_rel
        assert not (policy is None or policy in without)

    def test_parser_decides_permutation_on_codes(self):
        """The parser's decision equals the policy's, before and after its
        table first meets the REL category."""
        sov = grammar_by_id("0000000")
        policy = sov.policy
        parser = ChartParser(policy)
        for classes in [("NP", "SUBJ", "VI"), ("NP", "SUBJ", "REL", "NP"), ("VI", "NP")]:
            seq = sov.categorize(classes)
            codes = [parser.table.code(c) for c in seq]
            assert parser._permuting(codes) == (policy is None or policy in seq)

    def test_rotation_eligibility(self):
        vt = parse_category("(S\\NP_SUBJ)/NP_OBJ")
        assert rotations(vt) == [parse_category("(S/NP_OBJ)\\NP_SUBJ")]
        assert rotations(parse_category("NP/NP")) == []
        assert rotations(parse_category("(S\\NP_SUBJ)/@NP_OBJ")) == []


class TestRecognizer:
    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            ChartParser(ALWAYS).parse(())

    def test_determinism(self):
        first = en_parse(SHOWCASE_CLASSES).grammatical
        second = en_parse(SHOWCASE_CLASSES).grammatical
        assert first == second

    def test_parser_reuse(self):
        p = ChartParser(EN.policy)
        assert p.parse(EN.categorize(("NP", "SUBJ", "VI"))).grammatical
        assert not p.parse(EN.categorize(("VI", "NP", "SUBJ"))).grammatical
        assert p.parse(EN.categorize(("NP", "SUBJ", "VT", "NP", "OBJ"))).grammatical


POOL = Path(__file__).parent.parent / "perfbench" / "refs" / "parse_mix_pool.jsonl"


class ReferenceParser(ChartParser):
    """A parser whose chart fills span by span in length order."""

    def _fill(self, codes):
        return reference_fill(self, codes)


def long_candidates(grammar, rng, count):
    """Long-sampler-style candidates of lengths 11-20: two of the grammar's
    templates concatenated, joined by CONJ, or one inserted into the other
    after CONJ, whether or not they derive S."""
    templates = enumerate_templates(grammar, 7)
    out = []
    while len(out) < count:
        t1, t2 = rng.choice(templates), rng.choice(templates)
        cand = _extend(rng.randrange(3), t1, t2, rng.randrange(1, len(t1)))
        if 11 <= len(cand) <= 20:
            out.append(cand)
    return out


def conjunction_sequences(rng, count):
    """Random class sequences of lengths 5-20 with 2-5 CONJ tokens."""
    classes = [c for c in LEXICAL_CLASSES if c != "CONJ"]
    out = []
    for _ in range(count):
        n = rng.randint(5, 20)
        seq = [rng.choice(classes) for _ in range(n)]
        for p in rng.sample(range(n), rng.randint(2, min(5, n - 1))):
            seq[p] = "CONJ"
        out.append(tuple(seq))
    return out


def cell_categories(parser, chart):
    cats = parser.table.cats
    return [[{cats[c] for c in bits(cell)} for cell in row] for row in chart]


class TestAgenda:
    """``_fill`` visits only cells that can be non-empty; its chart must be
    the one the length-order fill of ``tests/oracle.py`` gives, cell for
    cell."""

    # 0101101 always permutes; 0011010 and 1001110 permute only with REL
    @pytest.mark.parametrize("gid", ["0101101", "0011010", "1001110"])
    def test_chart_matches_reference_fill(self, gid):
        grammar = grammar_by_id(gid)
        rng = random.Random(gid)
        inputs = long_candidates(grammar, rng, 150) + conjunction_sequences(rng, 150)
        warm = ChartParser(grammar.policy)
        modes = set()
        for classes in inputs:
            seq = grammar.categorize(classes)
            # warm: one table for both fills, so the masks compare as ints
            got = warm._fill(warm._encode(seq))
            assert got == reference_fill(warm, warm._encode(seq)), classes
            modes.add(got[2])
            # cold: a fresh table each, so cells compare as categories
            cold, ref = ChartParser(grammar.policy), ChartParser(grammar.policy)
            chart, conjs, permuting = cold._fill(cold._encode(seq))
            ref_chart, ref_conjs, ref_permuting = reference_fill(ref, ref._encode(seq))
            assert (conjs, permuting) == (ref_conjs, ref_permuting), classes
            assert cell_categories(cold, chart) == cell_categories(ref, ref_chart), classes
        assert modes == ({True} if grammar.policy is None else {True, False})

    def test_cold_derivations_match_reference_fill(self):
        """Codes are numbered in the order a table meets them, and the
        agenda meets them in another order than the length-order fill.  A
        cell's derivations are listed in code order, yet a fresh parser of
        each kind, run over the parse-mix pool grammar by grammar, returns
        the same trees in the same order for every item."""
        items: dict[str, list] = {}
        for line in POOL.read_text().splitlines():
            item = json.loads(line)
            items.setdefault(item["grammar"], []).append(item["classes"].split())
        trees = 0
        for gid, sequences in items.items():
            grammar = grammar_by_id(gid)
            parser, ref = ChartParser(grammar.policy), ReferenceParser(grammar.policy)
            for classes in sequences:
                seq = grammar.categorize(classes)
                got = parser.parse(seq, derivations=True)
                want = ref.parse(seq, derivations=True)
                assert got.grammatical == want.grammatical, (gid, classes)
                assert got.derivations == want.derivations, (gid, classes)
                trees += len(got.derivations)
        assert len(items) == 96 and trees > 0


class TestBalance:
    """The count invariant behind ``parse``'s rejection before the chart."""

    def test_rules_keep_balance(self):
        """Over each grammar's closed category universe, every binary result
        has the summed balance of its inputs, every rotation its source's
        balance, and only the conjunction has none."""
        checked = 0
        for g in enumerate_grammars():
            _cats, table, pairs = category_universe(g, True)
            bal = table.balances
            assert None not in bal, g.params
            for a, b in pairs:
                outs = [c for _rule, c in table.combine(a, b)]
                assert all(bal[c] == bal[a] + bal[b] for c in outs), (g.params, a, b)
                checked += 1
            for a in range(len(table.cats)):
                closed = table.closure(a, True)
                assert all(bal[r] == bal[a] for r in range(len(table.cats)) if closed >> r & 1)
            assert balance(g.category("CONJ")) is None
            assert bal[table.code(g.category("CONJ"))] is None
        assert checked > 0

    def test_unbalanced_input_skips_chart(self):
        """A case-swap twin and a failing one-conjunction insertion are
        rejected before any join is memoised; a balanced ungrammatical
        input still fills a chart.  The raw chart agrees with each verdict."""
        rejected = [
            ("NP", "OBJ", "VI"),  # twin of NP SUBJ VI
            ("NP", "SUBJ", "CONJ", "NP", "VI"),  # CONJ NP inserted into NP SUBJ VI
        ]
        for classes in rejected:
            parser = ChartParser(EN.policy)
            seq = EN.categorize(classes)
            assert not parser.parse(seq).grammatical
            assert not parser.table.joins(True) and not parser.table.joins(False), classes
            assert S not in chart_derivable(parser, seq)
        parser = ChartParser(EN.policy)
        balanced = EN.categorize(("VI", "NP", "SUBJ"))
        assert not parser.parse(balanced).grammatical
        assert parser.table.joins(True) or parser.table.joins(False)
        assert parser._balanced(parser._encode(balanced))


class TestRuleTable:
    def test_shared_memo_keeps_code_order(self):
        """Rule results shared between tables leave each table's own codes,
        and so a fresh parser's derivations, as they were."""
        _rule_results.cache_clear()
        before = en_parse(SHOWCASE_CLASSES, derivations=True).derivations
        for gid in ("0000000", "1111111", "0011010", "1001110"):
            enumerate_templates(grammar_by_id(gid), 6)
        hits = _rule_results.cache_info().hits
        after = en_parse(SHOWCASE_CLASSES, derivations=True).derivations
        assert _rule_results.cache_info().hits > hits  # the fresh parser used the memo
        assert before
        assert after == before

    def test_coordinable_codes_are_closed_under_rotation(self):
        """The chart's coordination step, ``both & table.coordinating``,
        keeps a cell closed only if coordinability is constant along every
        rotation chain.  Closed cells and closed enumeration entries also
        need each closure to hold the closures of its members.  The chart
        tells conjunction tokens by ``table.conjunctions`` alone."""
        rotated = 0  # pairs with r != a, so the check is not vacuous
        for g in enumerate_grammars():
            _cats, table, _pairs = category_universe(g, True)
            codes = range(len(table.cats))
            for a in codes:
                assert all(coordinable(r) == coordinable(table.cats[a])
                           for r in rotations(table.cats[a])), (g.params, table.cats[a])
                closed = table.closure(a, True)
                for r in codes:
                    if closed >> r & 1:
                        rotated += r != a
                        assert table.closure(r, True) & ~closed == 0, (g.params, table.cats[r])
            assert table.coordinating == sum(
                1 << c for c, cat in enumerate(table.cats) if coordinable(cat)), g.params
            conj = table.code(g.category("CONJ"))  # the universe leaves it out
            assert table.conjunctions == sum(
                1 << c for c, cat in enumerate(table.cats) if is_conjunction(cat)) == 1 << conj
        assert rotated
