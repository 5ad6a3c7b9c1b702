"""Evaluation metrics: perplexity, typological-alignment correlation, and
minimal-pair judgment accuracy, plus an n-gram baseline scorer so the whole
pipeline runs without external models.

Perplexity is corpus-level: total log mass over total token count (EOS
included).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass

from scipy.special import stdtr

from .corpus import _field, read_jsonl, write_jsonl
from .grammars import BASE_ORDERS, Grammar, enumerate_grammars

EOS = "</s>"
BOS = "<s>"

_FACTOR_PARAMS = ("COMP", "PP", "ADJ", "REL")
_FACTOR_INDEX = {"COMP": 3, "PP": 4, "ADJ": 5, "REL": 6}

DEFAULT_BASE_ORDER_FREQ = {
    "SOV": 0.54,
    "OSV": 0.04,
    "SVO": 0.23,
    "OVS": 0.01,
    "VSO": 0.12,
    "VOS": 0.05,
}


@dataclass(frozen=True)
class ScoreRecord:
    """Per-sentence log-probabilities (natural log), EOS scored last."""

    grammar_id: str
    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.logprobs) != len(self.tokens) + 1:
            raise ValueError("need one logprob per token plus EOS")
        if any(not lp <= 0.0 for lp in self.logprobs):  # NaN too
            raise ValueError("logprobs must be <= 0")

    @property
    def total(self) -> float:
        return sum(self.logprobs)

    def to_json(self) -> dict:
        return {
            "grammar_id": self.grammar_id,
            "tokens": list(self.tokens),
            "logprobs": list(self.logprobs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScoreRecord":
        return cls(
            _field(data, "grammar_id", str),
            tuple(_field(data, "tokens", list, str)),
            tuple(_field(data, "logprobs", list, (int, float))),
        )


def save_scores(records, path) -> None:
    write_jsonl(path, (r.to_json() for r in records))


def load_scores(path) -> list[ScoreRecord]:
    return [ScoreRecord.from_json(d) for d in read_jsonl(path)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class TypologyTable:
    """Cross-linguistic frequencies: joint over the six base orders, plus
    independent marginals for the COMP/PP/ADJ/REL parameters."""

    base_order_freq: dict[str, float]
    param_freq: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        missing = set(BASE_ORDERS) - set(self.base_order_freq)
        if missing:
            raise ValueError(f"base_order_freq missing orders: {sorted(missing)}")
        missing = set(_FACTOR_PARAMS) - set(self.param_freq)
        if missing:
            raise ValueError(f"param_freq missing parameters: {sorted(missing)}")
        entries = [(f"base_order_freq[{o}]", f) for o, f in self.base_order_freq.items()]
        entries += [(f"param_freq[{p}]", f) for p, pair in self.param_freq.items() for f in pair]
        for name, freq in entries:
            if not (_is_number(freq) and 0.0 <= freq <= 1.0):  # NaN fails the test
                raise ValueError(f"{name} must be a number in [0, 1], got {freq!r}")
        # Source tables are rounded to two decimals, so validate loosely.
        total = sum(self.base_order_freq[o] for o in BASE_ORDERS)
        if abs(total - 1.0) > 1e-2:
            raise ValueError(f"base order distribution sums to {total}")
        for p in _FACTOR_PARAMS:
            pair = self.param_freq[p]
            if len(pair) != 2 or abs(sum(pair) - 1.0) > 1e-2:
                raise ValueError(f"param_freq[{p}] is not a distribution: {pair}")

    @classmethod
    def default(cls) -> "TypologyTable":
        return cls(
            dict(DEFAULT_BASE_ORDER_FREQ),
            {p: (0.5, 0.5) for p in _FACTOR_PARAMS},
        )

    def to_json(self) -> dict:
        return {
            "base_order_freq": dict(sorted(self.base_order_freq.items())),
            "param_freq": {k: list(v) for k, v in sorted(self.param_freq.items())},
        }

    @classmethod
    def load(cls, path) -> "TypologyTable":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("typology file must hold one JSON object")
        for key in ("base_order_freq", "param_freq"):
            if not isinstance(data.get(key), dict):
                raise ValueError(f"typology file needs a {key} object, got {data.get(key)!r}")
        for p, pair in data["param_freq"].items():
            if not isinstance(pair, list):
                raise ValueError(f"param_freq[{p}] must be a list of numbers, got {pair!r}")
        return cls(
            dict(data["base_order_freq"]),
            {k: tuple(v) for k, v in data["param_freq"].items()},
        )

    def provenance_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def perplexity(records) -> float:
    records = list(records)
    if not records:
        raise ValueError("empty score set")
    total = sum(r.total for r in records)
    tokens = sum(len(r.logprobs) for r in records)
    return math.exp(-total / tokens)


def plausibility(grammar: Grammar, table: TypologyTable) -> float:
    try:
        value = table.base_order_freq[grammar.base_order]
        for name in _FACTOR_PARAMS:
            bit = int(grammar.params[_FACTOR_INDEX[name]])
            value *= table.param_freq[name][bit]
    except KeyError as exc:
        raise ValueError(f"typology table missing entry: {exc}") from exc
    return value


def pearson(x, y) -> tuple[float, float]:
    """Pearson r and the two-sided p-value from the t distribution."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    if n != len(y) or n < 3:
        raise ValueError("need two equal-length vectors of size >= 3")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("pearson input must be finite")
    mx = sum(x) / n
    my = sum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = sum(v * v for v in dx)
    syy = sum(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate input")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))  # the t survival function
    return r, p


def ta_score(ppl_by_grammar: dict[str, float], table: TypologyTable) -> tuple[float, float]:
    """Correlation between per-language perplexity and typological
    plausibility over the full set of 96 grammars."""
    grammars = enumerate_grammars()
    missing = [g.params for g in grammars if g.params not in ppl_by_grammar]
    if missing:
        raise ValueError(f"missing grammars: {missing}")
    ppls = [ppl_by_grammar[g.params] for g in grammars]
    plaus = [plausibility(g, table) for g in grammars]
    return pearson(ppls, plaus)


def judge_pairs(pairs) -> float:
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair set")
    correct = 0
    for good, bad in pairs:
        if len(good.logprobs) != len(bad.logprobs):
            raise ValueError("pair members must have equal token counts")
        if good.total > bad.total:
            correct += 1
    return correct / len(pairs)


# --- n-gram baseline --------------------------------------------------------


@dataclass
class NgramModel:
    """Word-level add-k n-gram model with backoff to shorter contexts."""

    order: int
    k: float
    vocab: tuple[str, ...]
    counts: dict[tuple[str, ...], dict[str, int]]
    context_totals: dict[tuple[str, ...], int]

    def logprob(self, context: tuple[str, ...], word: str) -> float:
        v = len(self.vocab)
        ctx = context[max(0, len(context) - (self.order - 1)):]
        while ctx and self.context_totals.get(ctx, 0) == 0:
            ctx = ctx[1:]
        total = self.context_totals.get(ctx, 0)
        count = self.counts.get(ctx, {}).get(word, 0)
        return math.log((count + self.k) / (total + self.k * v))

    def score_tokens(self, tokens) -> list[float]:
        history = (BOS,) * (self.order - 1)
        out = []
        for w in tuple(tokens) + (EOS,):
            out.append(self.logprob(history, w))
            history = history[1:] + (w,) if self.order > 1 else ()
        return out


def _reject_boundary_tokens(tokens) -> None:
    """A word spelled like ``BOS`` or ``EOS`` would be counted as padding."""
    for symbol in (BOS, EOS):
        if symbol in tokens:
            raise ValueError(f"token {symbol!r} is an n-gram boundary symbol")


def ngram_train(train, order: int, k: float) -> NgramModel:
    train = list(train)
    if not train:
        raise ValueError("empty training set")
    if order < 1:
        raise ValueError("order must be >= 1")
    if k <= 0:
        raise ValueError("smoothing constant must be > 0")
    words = {w for s in train for w in s.tokens}
    _reject_boundary_tokens(words)
    vocab = sorted(words | {EOS})
    grams: Counter[tuple[str, ...]] = Counter()  # full order-n grams, context + word
    for s in train:
        padded = (BOS,) * (order - 1) + tuple(s.tokens) + (EOS,)
        grams.update(zip(*(padded[i:] for i in range(order))))
    # Count every context suffix so backoff distributions are proper.
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for gram, c in grams.items():
        w = gram[-1]
        for back in range(order):
            row = counts.setdefault(gram[back:-1], {})
            row[w] = row.get(w, 0) + c
    totals = {ctx: sum(row.values()) for ctx, row in counts.items()}
    return NgramModel(order, k, tuple(vocab), counts, totals)


def ngram_score(model: NgramModel, sentences) -> list[ScoreRecord]:
    out = []
    for s in sentences:
        tokens = tuple(s.tokens)
        _reject_boundary_tokens(tokens)
        out.append(ScoreRecord(s.grammar_id, tokens, tuple(model.score_tokens(tokens))))
    return out


# --- reporting --------------------------------------------------------------


def write_report(path, rows, summary: dict | None) -> None:
    """CSV report: one row per (grammar, split) plus an optional summary row
    carrying the correlation statistics and typology provenance."""
    fieldnames = ["grammar_id", "base_order", "split", "ppl", "plausibility", "r", "p_value", "typology_hash"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
        if summary:
            writer.writerow({k: summary.get(k, "") for k in fieldnames})
