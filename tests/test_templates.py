"""Template enumeration, heuristics, Long augmentation."""

import gc
import hashlib
import json
import random
import re
import tracemalloc
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from alforge import templates as templates_module
from alforge.categories import S
from alforge.combinators import coordinable, coordinate
from alforge.grammars import LEXICAL_CLASSES, enumerate_grammars, grammar_by_id
from alforge.parser import ChartParser, _rule_results
from alforge.templates import (
    _build_keys,
    _key,
    _language,
    _length_bounds,
    _template,
    category_universe,
    enumerate_templates,
    grammatical_sequences,
    heuristic_filter,
    is_grammatical,
    load_templates,
    sample_long_templates,
    save_templates,
)

from oracle import (
    reference_grammatical_sequences,
    reference_heuristic_filter,
    reference_language,
    reference_universe,
)

EN = grammar_by_id("0101101")
CENSUS = Path(__file__).parent.parent / "perfbench" / "refs" / "census.json"


def passes(classes) -> bool:
    """``heuristic_filter`` on the key of a class sequence."""
    return heuristic_filter(_key(classes))


class TestHeuristics:
    def test_minimum_length(self):
        assert not passes(("NP", "VI"))
        assert passes(("NP", "SUBJ", "VI"))

    def test_conjunction_edges(self):
        assert not passes(("CONJ", "NP", "VI"))
        assert not passes(("NP", "VI", "CONJ"))

    def test_consecutive_conjunctions(self):
        assert not passes(("NP", "CONJ", "CONJ", "NP", "VI"))

    def test_consecutive_prepositions(self):
        assert not passes(("NP", "PREP", "PREP", "NP", "VI"))

    def test_leading_marker(self):
        assert not passes(("SUBJ", "NP", "VI"))
        assert not passes(("OBJ", "NP", "VI"))

    def test_marker_excess(self):
        assert not passes(("NP", "SUBJ", "OBJ", "VI"))
        assert passes(("NP", "SUBJ", "VT", "NP", "OBJ"))

    def test_orphan_complementizer(self):
        assert not passes(("NP", "SUBJ", "COMP", "VI"))
        assert passes(("NP", "SUBJ", "VCOMP", "COMP", "NP", "SUBJ", "VI"))

    def test_matches_reference(self):
        """The filter, which runs on keys, agrees with the eight rules tested
        one at a time on every class sequence of length <= 5 (177,156 of
        them) and on 5,000 seeded random sequences of length 6-20.  Of 5,000
        more that mix in labels outside ``LEXICAL_CLASSES``, those with such
        a label have no key, and the rest agree too."""
        seqs = [seq for n in range(6) for seq in product(LEXICAL_CLASSES, repeat=n)]
        rng = random.Random(5)
        seqs += [tuple(rng.choices(LEXICAL_CLASSES, k=rng.randint(6, 20))) for _ in range(5000)]
        labels = LEXICAL_CLASSES + ("VX", "np", "CONJ ", "")
        mixed = [tuple(rng.choices(labels, k=rng.randint(0, 12))) for _ in range(5000)]
        outside = [seq for seq in mixed if not set(seq) <= set(LEXICAL_CLASSES)]
        assert 0 < len(outside) < len(mixed)
        for seq in outside:
            with pytest.raises(KeyError):
                _key(seq)
        seqs += [seq for seq in mixed if set(seq) <= set(LEXICAL_CLASSES)]
        differ = [seq for seq in seqs if passes(seq) != reference_heuristic_filter(seq)]
        assert not differ, differ[:5]
        kept = sum(map(passes, seqs))
        assert 0 < kept < len(seqs)

    def test_only_prep_prep_prunes_sentences(self):
        """Of the sequences of length <= 7 that derive S, the filter rejects
        96 over the 96 grammars, each for containing PREP PREP."""
        rejected = [t for g in enumerate_grammars() for t in sentences_to_7(g.params)
                    if not passes(t)]
        assert len(rejected) == 96
        assert all(("PREP", "PREP") in zip(t, t[1:]) for t in rejected), rejected


class TestKeys:
    """The language build's str keys, one character per class."""

    @staticmethod
    def sequences() -> list[tuple[str, ...]]:
        """Every class sequence of length <= 4, and seeded random ones of
        length 5-20, many of them sharing a prefix (or being one) with
        another."""
        seqs = [seq for n in range(5) for seq in product(LEXICAL_CLASSES, repeat=n)]
        rng = random.Random(31)
        for _ in range(3000):
            seq = tuple(rng.choices(LEXICAL_CLASSES, k=rng.randint(5, 20)))
            prefix = seq[:rng.randint(1, len(seq))]
            tail = tuple(rng.choices(LEXICAL_CLASSES, k=rng.randint(1, 8)))
            seqs += [seq, prefix, prefix + tail]
        return seqs

    def test_round_trip_to_canonical_labels(self):
        canonical = {cls: cls for cls in LEXICAL_CLASSES}
        for seq in self.sequences():
            copied = tuple("".join(list(cls)) for cls in seq)  # equal labels, other objects
            t = _template(_key(copied))
            assert t == seq
            assert all(cls is canonical[cls] for cls in t), seq

    def test_key_order_is_tuple_order(self):
        seqs = self.sequences()
        keys = sorted(_key(seq) for seq in seqs)
        assert list(map(_template, keys)) == sorted(seqs)


class TestEnumeration:
    def test_matches_parser_small(self):
        """DP language equals parser verdicts on every sequence of length 3."""
        parser = ChartParser(EN.policy)
        lang = grammatical_sequences(EN, 3)
        for seq in product(LEXICAL_CLASSES, repeat=3):
            expected = parser.parse(EN.categorize(seq)).grammatical
            assert (seq in lang[3]) == expected, seq

    def test_templates_are_grammatical_and_filtered(self):
        parser = ChartParser(EN.policy)
        templates = enumerate_templates(EN, 6)
        assert templates
        for t in templates:
            assert passes(t)
            assert parser.parse(EN.categorize(t)).grammatical

    def test_sorted_and_unique(self):
        templates = enumerate_templates(EN, 6)
        assert templates == sorted(set(templates))

    def test_rel_conditional_union(self):
        """SOV grammars keep permutation-dependent strings only with REL."""
        sov = grammar_by_id("0000000")
        templates = set(enumerate_templates(sov, 7))
        assert ("NP", "SUBJ", "NP", "OBJ", "VT") in templates
        # OSV order of the same clause needs permutation, hence REL
        assert ("NP", "OBJ", "NP", "SUBJ", "VT") not in templates

    def test_trivial_bound(self):
        assert enumerate_templates(EN, 2) == []

    @staticmethod
    def census_mismatches(records: list[dict]) -> list[tuple[str, int]]:
        """(grammar, max_len) of each census record whose per-length counts
        or sha256 of the template list, one space-joined template per line,
        differ from an enumeration in the records' order."""
        wrong = []
        for rec in records:
            templates = enumerate_templates(grammar_by_id(rec["grammar"]), rec["max_len"])
            counts: dict[str, int] = {}
            digest = hashlib.sha256()
            for t in templates:
                counts[str(len(t))] = counts.get(str(len(t)), 0) + 1
                digest.update(" ".join(t).encode() + b"\n")
            if counts != rec["counts"] or digest.hexdigest() != rec["digest"]:
                wrong.append((rec["grammar"], rec["max_len"]))
        return wrong

    def test_census_references(self):
        """Every recorded census."""
        records = json.loads(CENSUS.read_text())
        assert len(records) == 98  # 96 grammars at length 10, two at 14
        wrong = self.census_mismatches(records)
        assert not wrong, wrong

    @pytest.mark.parametrize("seed", [3, 4])
    def test_census_references_in_shuffled_order(self, seed):
        """The benchmark enumerates the census in an order shuffled by its
        seed, in a process whose rule memo starts empty."""
        records = json.loads(CENSUS.read_text())
        random.Random(seed).shuffle(records)
        _rule_results.cache_clear()
        wrong = self.census_mismatches(records)
        assert not wrong, wrong


class TestSharedClosure:
    """Both permutation modes of ``grammatical_sequences`` read one
    permuting closure."""

    @pytest.mark.parametrize("gid", ["0000000", "0101101"])
    def test_one_closure_per_call(self, gid, monkeypatch):
        g = grammar_by_id(gid)
        calls = []

        def counted(grammar, permutation_active):
            calls.append(permutation_active)
            return category_universe(grammar, permutation_active)

        monkeypatch.setattr(templates_module, "category_universe", counted)
        assert grammatical_sequences(g, 6) == reference_grammatical_sequences(g, 6)
        assert calls == [True]

    def test_plain_closure_within_permuting(self):
        # and in both modes the build interns no code it does not reach, as
        # ``_language`` takes ``range(len(table.cats))`` for the universe
        for g in enumerate_grammars():
            plain, plain_table, _pairs = category_universe(g, False)
            cats, table, _pairs = category_universe(g, True)
            assert plain <= cats, g.params
            assert (len(plain), len(cats)) == (len(plain_table.cats), len(table.cats)), g.params

    @pytest.mark.parametrize("permutation_active", [True, False])
    def test_walk_lists_every_productive_pair_once(self, permutation_active):
        """The walk's pairs are exactly the ordered pairs of the table's
        codes that have a binary result, each once, and combining any two
        codes of the table interns no new one."""
        for g in enumerate_grammars():
            _cats, table, pairs = category_universe(g, permutation_active)
            n = len(table.cats)
            productive = {(a, b) for a in range(n) for b in range(n) if table.combine(a, b)}
            assert len(table.cats) == n, g.params
            assert len(pairs) == len(set(pairs)), g.params
            assert set(pairs) == productive, g.params

    @pytest.mark.parametrize("permutation_active", [True, False])
    def test_indexed_walk_matches_reference(self, permutation_active):
        """The walk over indexed partners interns the same codes and lists
        the same pairs, in the same order, as the walk over every pair."""
        for g in enumerate_grammars():
            _cats, table, pairs = category_universe(g, permutation_active)
            _ref_cats, ref_table, ref_pairs = reference_universe(g, permutation_active)
            assert table.cats == ref_table.cats, g.params
            assert pairs == ref_pairs, g.params

    def test_rule_lookups_scale_with_pairs(self, monkeypatch):
        """Work-count guard: over the 96 permuting universes the walk asks
        ``_rule_results`` about 19,104 pairs, where a walk over every ordered
        pair of codes asks about 121,056."""
        calls = 0
        real = templates_module._rule_results

        def counted(x, y):
            nonlocal calls
            calls += 1
            return real(x, y)

        monkeypatch.setattr(templates_module, "_rule_results", counted)
        for g in enumerate_grammars():
            category_universe(g, True)
        assert 0 < calls < 30_000


class TestPruning:
    """The outside-length pruning of ``_language`` changes no output: its
    budget depends on ``max_len``, so every bound is checked against the
    unpruned reference, whose length-n sets do not depend on it."""

    def test_length_bounds(self):
        # lexical 0, 1; 0 1 -> 2 or 3, where 2 rotates to 4, so the closed
        # results are 2, 3, 4; 4 1 -> 5, the root; 2 and 3 lead nowhere (4
        # gets the strings of 0 1 directly).  On the 96 grammars the minimum
        # over a pair's results happens to change no value, so this is where
        # it is checked.
        triples = [(0, 1, (2, 3, 4)), (4, 1, (5,))]
        minlen, need = _length_bounds(range(6), {0, 1}, triples, 5, 99)
        assert minlen == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 3}
        assert need == {0: 2, 1: 2, 2: 99, 3: 99, 4: 1, 5: 0}

    def test_all_grammars_every_bound(self):
        for g in enumerate_grammars():
            ref = reference_grammatical_sequences(g, 8)
            for m in range(3, 9):
                expected = {n: ref[n] for n in range(1, m + 1)}
                assert grammatical_sequences(g, m) == expected, (g.params, m)

    @pytest.mark.parametrize("gid", ["0101101", "0011010"])
    def test_deep_bound(self, gid):
        g = grammar_by_id(gid)
        assert grammatical_sequences(g, 11) == reference_grammatical_sequences(g, 11)

    def test_need_mutant_is_caught(self, monkeypatch):
        """Mutant check of the pruning: a ``need`` one class too large on
        every code but the root prunes sentences away, so the comparison with
        the reference above would fail on it."""
        ref = reference_grammatical_sequences(EN, 6)
        assert grammatical_sequences(EN, 6) == ref
        real = templates_module._length_bounds

        def need_plus_one(*args):
            minlen, need = real(*args)
            return minlen, {c: v + 1 if v else 0 for c, v in need.items()}

        monkeypatch.setattr(templates_module, "_length_bounds", need_plus_one)
        assert grammatical_sequences(EN, 6) != ref


class TestHalves:
    """For a grammar whose ``policy`` is set, the permuting ``_language``
    build makes only the sequences with REL and the plain build only those
    without.  The permuting build's last level joins only pairs with REL, and
    which level is last moves with ``max_len``, so every bound is checked."""

    @staticmethod
    def check_halves(g, bounds, ref_len):
        # the unpruned reference's length-n sets do not depend on its bound
        ref_rel = [{t for t in lang if "REL" in t}
                   for lang in reference_language(g, True, ref_len)]
        ref_plain = [{t for t in lang if "REL" not in t}
                     for lang in reference_language(g, False, ref_len)]
        build = category_universe(g, True)

        def decoded(lang):
            return [set(map(_template, keys)) for keys in lang]

        for m in bounds:
            assert decoded(_language(g, build, True, m)) == ref_rel[:m + 1], (g.params, m)
            assert decoded(_language(g, build, False, m)) == ref_plain[:m + 1], (g.params, m)

    def test_every_policy_grammar_every_bound(self):
        gated = [g for g in enumerate_grammars() if g.policy is not None]
        assert len(gated) == 64
        for g in gated:
            self.check_halves(g, range(3, 9), 8)

    def test_deep_bound(self):
        self.check_halves(grammar_by_id("0011010"), [11], 11)

    def test_policy_build_peaks_no_higher_than_plain_grammar(self):
        """Memory guard: with each build making only its half, the two key
        builds of 0011010 (policy set) peak no higher than the one build of
        0101101 (no policy); building both halves in full, 0011010 peaked
        about 1.6 times as high as 0101101.  It traces ``_build_keys``, the
        build that ``enumerate_templates`` runs: decoded to tuples, 0011010's
        larger language alone outweighs 0101101's.  The cyclic GC is
        collected and held off during the traced call, so that garbage left
        by earlier tests does not move the peak."""

        def traced_peak(gid: str) -> int:
            g = grammar_by_id(gid)
            _build_keys(g, 12)  # fill the process-wide caches first
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                _build_keys(g, 12)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()

        assert traced_peak("0011010") <= traced_peak("0101101")


class TestAugmentation:
    def test_sampled_extension(self):
        base = enumerate_templates(EN, 8)
        parser = ChartParser(EN.policy)
        out = sample_long_templates(base, EN, per_length=3, min_len=11, max_len=14, seed=5,
                                    parser=parser)
        lengths = sorted({len(t) for t in out})
        assert lengths == [11, 12, 13, 14]
        assert all(is_grammatical(t, EN, parser) for t in out)
        assert all(passes(t) for t in out)

    def test_sampled_extension_deterministic(self):
        base = enumerate_templates(EN, 8)
        a = sample_long_templates(base, EN, 2, 11, 12, seed=9, parser=ChartParser(EN.policy))
        b = sample_long_templates(base, EN, 2, 11, 12, seed=9, parser=ChartParser(EN.policy))
        assert a == b

    def test_unknown_class_fails_before_any_draw(self, monkeypatch):
        def no_draws(rng):
            raise AssertionError("the sampler drew before it checked the classes")

        monkeypatch.setattr(templates_module, "picker", no_draws)
        sources = [*enumerate_templates(EN, 6), ("NP", "FOO", "VI")]
        with pytest.raises(ValueError, match=r"^0101101 Long templates: unknown lexical class 'FOO'$"):
            sample_long_templates(sources, EN, 2, 11, 12, seed=1, parser=ChartParser(EN.policy))

    def test_exhaustion_error(self):
        with pytest.raises(ValueError, match="insufficient templates for length 19"):
            sample_long_templates(
                [("NP", "SUBJ", "VI")], EN, per_length=50, min_len=19, max_len=20,
                seed=0, parser=ChartParser(EN.policy),
            )


@lru_cache(maxsize=None)
def sentences_to_7(params: str) -> list:
    """Every class sequence of length <= 7 that derives S, heuristics or not."""
    return sorted(set().union(*grammatical_sequences(grammar_by_id(params), 7).values()))


class TestCoordinationByConstruction:
    """The sampler accepts ``t1 CONJ t2`` without a parse because S
    coordinates: the parser must agree on every grammar.  The sources are
    every sequence that derives S, so that some fail the heuristics, which
    the sampler must still apply."""

    def test_s_coordinates(self):
        # the shortcut's precondition, whatever the grammar
        assert coordinable(S)

    def test_parser_agrees_on_drawn_coordinations(self):
        rng = random.Random(12)
        for g in enumerate_grammars():
            assert coordinate(S, g.category("CONJ"), S) is not None, g.params
            sources = sentences_to_7(g.params)
            pairs = [(rng.choice(sources), rng.choice(sources)) for _ in range(30)]
            if g.policy is not None:
                # one half is judged with permutation off on its own, and on
                # inside the candidate
                rel = [t for t in sources if "REL" in t]
                plain = [t for t in sources if "REL" not in t]
                pairs += [(rng.choice(rel), rng.choice(plain)) for _ in range(10)]
                pairs += [(rng.choice(plain), rng.choice(rel)) for _ in range(10)]
            parser = ChartParser(g.policy)
            wrong = [p for p in pairs if not is_grammatical(p[0] + ("CONJ",) + p[1], g, parser)]
            assert not wrong, (g.params, wrong)

    def test_shortcut_changes_no_output(self):
        # The draws do not depend on how a verdict is reached, so the output
        # is the one a parse of every candidate gives exactly when every
        # template the shortcut accepts does parse.
        for g in enumerate_grammars():
            checked = []
            parser = ChartParser(g.policy)
            parse = parser.parse
            parser.parse = lambda seq: checked.append(tuple(seq)) or parse(seq)
            shortcut = sample_long_templates(sentences_to_7(g.params), g, 2, 11, 13, seed=5,
                                             parser=parser)
            # some templates are accepted unparsed, and the remaining parses
            # still go through the parser's parse
            assert checked and {g.categorize(t) for t in shortcut} - set(checked), g.params
            assert all(is_grammatical(t, g, parser) for t in shortcut), g.params


class TestIO:
    def test_round_trip(self, tmp_path):
        templates = enumerate_templates(EN, 6)
        path = tmp_path / "templates.txt"
        save_templates(templates, path)
        assert load_templates(path) == templates

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NP SUBJ VERB\n")
        with pytest.raises(ValueError):
            load_templates(path)

    def test_unknown_class_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("NP SUBJ VI\n\nNP SUBJ VX\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line 3: "
                                             r"unknown lexical classes: \['VX'\]$"):
            load_templates(path)
