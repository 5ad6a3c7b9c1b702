"""Evaluation metrics: perplexity, correlations, judgments, n-gram baseline."""

import csv
import json
import math
import random
import re
import sys

import mpmath
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from alforge.corpus import Sentence, write_json
from alforge.evaluation import (
    BOS,
    EOS,
    ScoreRecord,
    TypologyTable,
    _t_tail,
    judge_pairs,
    load_scores,
    ngram_score,
    ngram_train,
    pearson,
    perplexity,
    plausibility,
    save_scores,
    ta_score,
    write_report,
)
from alforge.grammars import enumerate_grammars, grammar_by_id

from oracle import reference_ngram_counts


def record(tokens, logprobs, gid="0101101"):
    return ScoreRecord(gid, tuple(tokens), tuple(logprobs))


def sent(tokens, gid="0101101", split="ShortTrain"):
    return Sentence(tuple(tokens), ("NP",) * len(tokens), gid, split)


class TestScoreRecord:
    def test_requires_eos_slot(self):
        with pytest.raises(ValueError):
            record(["a", "b"], [-1.0, -1.0])

    def test_rejects_positive_logprob(self):
        with pytest.raises(ValueError):
            record(["a"], [-1.0, 0.5])

    def test_total(self):
        assert record(["a"], [-1.0, -2.0]).total == -3.0

    def test_round_trip(self, tmp_path):
        recs = [record(["a", "b"], [-1.0, -0.5, -2.0]), record(["c"], [0.0, -3.0])]
        path = tmp_path / "scores.jsonl"
        save_scores(recs, path)
        assert load_scores(path) == recs


class TestPerplexity:
    def test_uniform_equals_vocab_size(self):
        v = 7
        lp = -math.log(v)
        recs = [record(["a"] * n, [lp] * (n + 1)) for n in (1, 4, 9)]
        assert abs(perplexity(recs) - v) < 1e-9

    def test_hand_computed(self):
        recs = [record(["a"], [-1.0, -2.0]), record(["b", "c"], [-0.5, -0.5, -1.0])]
        expected = math.exp(5.0 / 5)
        assert abs(perplexity(recs) - expected) < 1e-12

    def test_order_invariance(self):
        recs = [record(["a"], [-1.0, -2.0]), record(["b"], [-0.25, -0.75])]
        assert perplexity(recs) == perplexity(reversed(recs))

    def test_empty(self):
        with pytest.raises(ValueError):
            perplexity([])


class TestPearson:
    def test_matches_scipy(self):
        x = [1.0, 2.5, 3.0, 4.7, 5.1, 8.2]
        y = [2.0, 1.0, 4.0, 3.5, 6.0, 5.5]
        r, p = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert abs(r - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-12

    def test_perfect_correlation(self):
        r, p = pearson([1, 2, 3], [2, 4, 6])
        assert r == 1.0
        assert p == 0.0

    @given(
        st.lists(st.integers(-100, 100), min_size=4, max_size=12, unique=True),
        st.floats(0.1, 10),
        st.floats(-50, 50),
    )
    def test_affine_invariance(self, x, a, b):
        x = [float(v) for v in x]
        y = [a * v + b for v in x]
        r, _ = pearson(x, y)
        assert abs(r - 1.0) < 1e-9
        r_neg, _ = pearson(x, [-v for v in y])
        assert abs(r_neg + 1.0) < 1e-9

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        # the clamp to [-1, 1] would turn a NaN r into a perfect correlation
        with pytest.raises(ValueError, match="^pearson input must be finite$"):
            pearson([1, 2, bad], [1, 2, 3])
        with pytest.raises(ValueError, match="^pearson input must be finite$"):
            pearson([1, 2, 3], [1, bad, 3])


def exact_tail(t: float, df: int, digits: int = 80) -> float:
    """P(|T| >= |t|) = I_x(df/2, 1/2), x = df / (df + t^2), by mpmath at
    ``digits`` digits from the exact float ``t``, rounded once through a
    40-digit string: mpmath's own ``float`` rounds a subnormal twice."""
    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        v = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                           regularized=True)
        return float(mpmath.nstr(v, 40))


def t_statistic(r: float, df: int) -> float:
    return r * math.sqrt(df / (1.0 - r * r))  # as `pearson` forms it


class TestTTail:
    """`_t_tail` returns the float nearest to the exact two-sided tail."""

    def test_recorded_input(self):
        # the ALL row of the 96-grammar pipeline at --scale 0.1 --seed 11
        t = t_statistic(-0.4176920494944245, 94)
        assert t == -4.457104574738747
        assert _t_tail(t, 94) == 2.2940501530250185e-05

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.floats(-(1 - 1e-15), 1 - 1e-15))
    def test_correctly_rounded(self, df, r):
        t = t_statistic(r, df)
        assert _t_tail(t, df) == exact_tail(t, df)

    @pytest.mark.parametrize("t, df, kind", [
        (3.0, 1, "normal"),
        (-3.0, 2, "normal"),
        (1e-9, 1, "normal"),  # p -> 1
        (1e-9, 2, "normal"),
        (1e-300, 1, "one"),
        (1e-300, 2, "one"),
        (500.0, 200, "subnormal"),
        (2e6, 57, "subnormal"),
        (t_statistic(1 - 1e-15, 400), 400, "zero"),  # the exact tail is near 5e-2942
    ])
    def test_fixed_cases(self, t, df, kind):
        p = _t_tail(t, df)
        assert p == exact_tail(t, df, digits=400)
        assert kind == ("one" if p == 1.0 else "zero" if p == 0.0
                        else "subnormal" if p < sys.float_info.min else "normal")


class TestPlausibility:
    def test_english(self):
        table = TypologyTable.default()
        assert abs(plausibility(grammar_by_id("0101101"), table) - 0.23 * 0.5**4) < 1e-15

    def test_factor_free_when_unit(self):
        table = TypologyTable(
            dict(TypologyTable.default().base_order_freq),
            {p: (1.0, 0.0) for p in ("COMP", "PP", "ADJ", "REL")},
        )
        assert plausibility(grammar_by_id("0000000"), table) == 0.54

    def test_missing_entry(self):
        table = TypologyTable.default()
        broken = TypologyTable.__new__(TypologyTable)
        object.__setattr__(broken, "base_order_freq", {k: v for k, v in table.base_order_freq.items() if k != "SOV"})
        object.__setattr__(broken, "param_freq", table.param_freq)
        with pytest.raises(ValueError, match="missing entry"):
            plausibility(grammar_by_id("0000000"), broken)


class TestTypologyTable:
    def test_default_valid(self):
        TypologyTable.default()

    def test_bad_sum(self):
        freq = dict(TypologyTable.default().base_order_freq)
        freq["SOV"] = 0.9
        with pytest.raises(ValueError):
            TypologyTable(freq, TypologyTable.default().param_freq)

    def test_missing_order(self):
        freq = dict(TypologyTable.default().base_order_freq)
        del freq["VOS"]
        with pytest.raises(ValueError):
            TypologyTable(freq, TypologyTable.default().param_freq)

    @pytest.mark.parametrize("section, key, value, message", [
        ("base_order_freq", "SOV", math.nan, "base_order_freq[SOV] must be a number in [0, 1], got nan"),
        ("param_freq", "REL", [1.5, -0.5], "param_freq[REL] must be a number in [0, 1], got 1.5"),
    ])
    def test_load_rejects_bad_frequency(self, tmp_path, section, key, value, message):
        # both pass the sum check: a NaN compares False, and 1.5 - 0.5 is 1
        data = TypologyTable.default().to_json()
        data[section][key] = value
        path = tmp_path / "typology.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TypologyTable.load(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("base_order_freq", "SXV", 0.0, "base_order_freq has unknown orders: ['SXV']"),
        ("param_freq", "VP", [0.5, 0.5], "param_freq has unknown parameters: ['VP']"),
    ])
    def test_load_rejects_unknown_key(self, tmp_path, section, key, value, message):
        # plausibility never reads either, but both would change the hash
        data = TypologyTable.default().to_json()
        data[section][key] = value
        path = tmp_path / "typology.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TypologyTable.load(path)

    def test_round_trip_and_hash(self, tmp_path):
        table = TypologyTable.default()
        path = tmp_path / "typology.json"
        write_json(path, table.to_json())
        loaded = TypologyTable.load(path)
        assert loaded == table
        assert loaded.provenance_hash() == table.provenance_hash()
        assert len(table.provenance_hash()) == 16


class TestTaScore:
    def test_synthetic_recovery(self):
        table = TypologyTable.default()
        ppls = {g.params: 100.0 - 50.0 * plausibility(g, table) for g in enumerate_grammars()}
        r, p = ta_score(ppls, table)
        assert abs(r + 1.0) < 1e-12
        assert p < 1e-12

    def test_missing_grammars(self):
        table = TypologyTable.default()
        ppls = {g.params: 1.0 for g in enumerate_grammars()}
        del ppls["0101101"]
        with pytest.raises(ValueError, match="0101101"):
            ta_score(ppls, table)


class TestJudgment:
    def test_accuracy(self):
        good = record(["a"], [-1.0, -1.0])
        bad = record(["b"], [-2.0, -2.0])
        assert judge_pairs([(good, bad)]) == 1.0
        assert judge_pairs([(bad, good)]) == 0.0
        assert judge_pairs([(good, bad), (bad, good), (good, bad), (good, bad)]) == 0.75

    def test_ties_count_incorrect(self):
        a = record(["a"], [-1.0, -1.0])
        b = record(["b"], [-0.5, -1.5])
        assert judge_pairs([(a, b)]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            judge_pairs([(record(["a"], [-1.0, -1.0]), record(["a", "b"], [-1.0] * 3))])

    def test_empty(self):
        with pytest.raises(ValueError):
            judge_pairs([])


class TestNgram:
    def test_unigram_oracle(self):
        """Add-1 unigram on {"a b", "a c"}: p(a) = (2+1)/(6+4) = 3/10."""
        model = ngram_train([sent(["a", "b"]), sent(["a", "c"])], order=1, k=1.0)
        lp = model.logprob((), "a")
        assert abs(math.exp(lp) - 0.3) < 1e-12

    def test_distributions_sum_to_one(self):
        model = ngram_train([sent(["a", "b", "a"]), sent(["b", "a"])], order=3, k=0.5)
        for ctx in model.context_totals:
            mass = sum(math.exp(model.logprob(ctx, w)) for w in model.vocab)
            assert abs(mass - 1.0) < 1e-9

    def test_training_ppl_bounds(self):
        train = [sent(["a", "b"]), sent(["b", "c", "a"])]
        model = ngram_train(train, order=2, k=0.1)
        ppl = perplexity(ngram_score(model, train))
        assert 1.0 <= ppl <= len(model.vocab)

    def test_higher_order_fits_better(self):
        train = [sent(list("abcab")), sent(list("bcabc")), sent(list("cabca"))]
        uni = perplexity(ngram_score(ngram_train(train, 1, k=0.01), train))
        tri = perplexity(ngram_score(ngram_train(train, 3, k=0.01), train))
        assert tri <= uni

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_reference(self, order, seed):
        """Counted once per distinct n-gram and folded into its context
        suffixes, the tables equal one increment per suffix and position;
        the sentences repeat words and n-grams, and one is empty."""
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(2, 6))]
        train = [sent(rng.choices(words, k=rng.randint(0, 7))) for _ in range(40)] + [sent([])]
        model = ngram_train(train, order, k=0.1)
        counts, totals = reference_ngram_counts([s.tokens for s in train], order)
        assert model.counts == counts
        assert model.context_totals == totals
        assert all(len(ctx) < order for ctx in counts)

    def test_eos_in_vocab(self):
        model = ngram_train([sent(["a"])], order=2, k=1.0)
        assert EOS in model.vocab

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ngram_train([], 2, k=1.0)
        with pytest.raises(ValueError):
            ngram_train([sent(["a"])], 0, k=1.0)
        with pytest.raises(ValueError):
            ngram_train([sent(["a"])], 2, k=0.0)

    @pytest.mark.parametrize("k", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_k_must_be_positive_and_finite(self, k):
        # else scoring fails later, on logprobs that are nan or above 0
        with pytest.raises(ValueError, match=f"^smoothing constant k must be > 0 and finite, "
                                             f"got {re.escape(str(k))}$"):
            ngram_train([sent(["a"])], 2, k=k)

    @pytest.mark.parametrize("symbol", [BOS, EOS])
    def test_train_rejects_boundary_token(self, symbol):
        with pytest.raises(ValueError, match=re.escape(repr(symbol))):
            ngram_train([sent(["x", symbol]), sent(["y"])], order=2, k=1.0)

    @pytest.mark.parametrize("symbol", [BOS, EOS])
    def test_score_rejects_boundary_token(self, symbol):
        model = ngram_train([sent(["x"])], order=2, k=1.0)
        with pytest.raises(ValueError, match=re.escape(repr(symbol))):
            ngram_score(model, [sent(["x"]), sent([symbol, "x"])])

    def test_scores_carry_grammar_id(self):
        model = ngram_train([sent(["a"])], order=1, k=1.0)
        recs = ngram_score(model, [sent(["a"], gid="0000000")])
        assert recs[0].grammar_id == "0000000"
        assert len(recs[0].logprobs) == 2


class TestReport:
    def test_write(self, tmp_path):
        path = tmp_path / "report.csv"
        rows = [
            {"grammar_id": "0101101", "base_order": "SVO", "split": "ShortTest", "ppl": 12.5},
        ]
        summary = {"split": "TA", "r": -0.5, "p_value": 0.01, "typology_hash": "ab" * 8}
        write_report(path, rows, summary)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert got[0]["grammar_id"] == "0101101"
        assert got[0]["ppl"] == "12.5"
        assert got[1]["r"] == "-0.5"
