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
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import add

from .corpus import (
    BOS, EOS, _field, _Literals, _malformed, _strings, read_json, read_jsonl, write_jsonl,
)
from .grammars import BASE_ORDERS, Grammar, enumerate_grammars


def _fold(values) -> float:
    """The sum of ``values`` added left to right from int 0, as the builtin
    ``sum`` adds floats up to Python 3.11.  Python 3.12 compensates the
    builtin's float rounding (gh-100425), so the artifacts and the default
    typology's validation would depend on the interpreter."""
    return reduce(add, values, 0)


_FACTOR_PARAMS = {"COMP": 3, "PP": 4, "ADJ": 5, "REL": 6}  # name -> digit of the params id

DEFAULT_BASE_ORDER_FREQ = {
    "SOV": 0.54,
    "OSV": 0.04,
    "SVO": 0.23,
    "OVS": 0.01,
    "VSO": 0.12,
    "VOS": 0.05,
}


_NUMBERS = frozenset({int, float})  # the types of a logprob, bool left out


@dataclass(frozen=True)
class ScoreRecord:
    """Per-sentence log-probabilities (natural log), EOS scored last."""

    grammar_id: str
    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        """The one check of a score record, scored or read from a file: what
        it accepts, `save_scores` writes and `load_scores` reads back."""
        if not isinstance(self.grammar_id, str):
            raise _malformed("grammar_id", self.grammar_id)
        if not _strings(self.tokens):
            raise _malformed("tokens", self.tokens)
        if type(self.logprobs) is not tuple or not _NUMBERS.issuperset(map(type, self.logprobs)):
            raise _malformed("logprobs", self.logprobs)  # bool too
        if len(self.logprobs) != len(self.tokens) + 1:
            raise ValueError("need one logprob per token plus EOS")
        if any(not lp <= 0.0 for lp in self.logprobs):  # NaN too
            raise ValueError("logprobs must be <= 0")

    @property
    def total(self) -> float:
        return _fold(self.logprobs)

    @classmethod
    def from_json(cls, data: dict) -> "ScoreRecord":
        return cls(
            _field(data, "grammar_id", str),
            tuple(_field(data, "tokens", list)),
            tuple(_field(data, "logprobs", list)),
        )


def _number(x) -> str:
    """The JSON text of a logprob, an int or a float <= 0, as ``json.dumps``
    writes it."""
    if type(x) is int:
        return int.__repr__(x)
    return "-Infinity" if x == -math.inf else float.__repr__(x)


def _score_line(r: ScoreRecord, text: _Literals, negatives: _Literals) -> str:
    """The JSON object of ``r``, its strings from the memo ``text`` and each
    float in (-inf, 0) from the memo ``negatives``; -0.0, 0.0, ints and the
    rest are written by `_number` each time, so no memo key merges them."""
    return ('{"grammar_id": ' + text[r.grammar_id] + ', "logprobs": ['
            + ", ".join([negatives[x] if type(x) is float and -math.inf < x < 0.0 else _number(x)
                         for x in r.logprobs])
            + '], "tokens": [' + ", ".join(map(text.__getitem__, r.tokens)) + "]}")


def save_scores(records, path) -> None:
    text, negatives = _Literals(encode_basestring_ascii), _Literals(float.__repr__)
    write_jsonl(path, (_score_line(r, text, negatives) for r in records))


def load_scores(path) -> list[ScoreRecord]:
    return read_jsonl(path, ScoreRecord.from_json)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class TypologyTable:
    """Cross-linguistic frequencies: joint over the six base orders, plus
    independent marginals for the COMP/PP/ADJ/REL parameters."""

    base_order_freq: dict[str, float]
    param_freq: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for name, given, known, what in (
            ("base_order_freq", self.base_order_freq, BASE_ORDERS, "orders"),
            ("param_freq", self.param_freq, _FACTOR_PARAMS, "parameters"),
        ):
            if missing := set(known) - set(given):
                raise ValueError(f"{name} missing {what}: {sorted(missing)}")
            if unknown := set(given) - set(known):
                raise ValueError(f"{name} has unknown {what}: {sorted(unknown)}")
        entries = [(f"base_order_freq[{o}]", f) for o, f in self.base_order_freq.items()]
        entries += [(f"param_freq[{p}]", f) for p, pair in self.param_freq.items() for f in pair]
        for name, freq in entries:
            if not (_is_number(freq) and 0.0 <= freq <= 1.0):  # NaN fails the test
                raise ValueError(f"{name} must be a number in [0, 1], got {freq!r}")
        # Source tables are rounded to two decimals, so validate loosely.
        total = _fold(self.base_order_freq[o] for o in BASE_ORDERS)
        if abs(total - 1.0) > 1e-2:
            raise ValueError(f"base order distribution sums to {total}")
        for p in _FACTOR_PARAMS:
            pair = self.param_freq[p]
            if len(pair) != 2 or abs(_fold(pair) - 1.0) > 1e-2:
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
        data = read_json(path)
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
    total = _fold(r.total for r in records)
    tokens = sum(len(r.logprobs) for r in records)
    return math.exp(-total / tokens)


def plausibility(grammar: Grammar, table: TypologyTable) -> float:
    try:
        value = table.base_order_freq[grammar.base_order]
        for name, digit in _FACTOR_PARAMS.items():
            value *= table.param_freq[name][int(grammar.params[digit])]
    except KeyError as exc:
        raise ValueError(f"typology table missing entry: {exc}") from exc
    return value


def pearson(x, y) -> tuple[float, float]:
    """Pearson r and the two-sided p-value from the t distribution: the float
    nearest the exact tail of the float t statistic (see `_t_tail`)."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    if n != len(y) or n < 3:
        raise ValueError("need two equal-length vectors of size >= 3")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("pearson input must be finite")
    mx = _fold(x) / n
    my = _fold(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = _fold(v * v for v in dx)
    syy = _fold(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate input")
    r = _fold(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, _t_tail(t_stat, n - 2)


def _t_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` >= 1 degrees of freedom: 1 -
    A(t|df) by the finite sums of Abramowitz & Stegun 26.7.3 (odd ``df``) and
    26.7.4 (even), with cos^2(theta) = df / (df + t^2), in ``decimal`` from
    the exact value of ``t``.  The precision doubles until 25 digits survive
    the cancellation in 1 - A, so the one rounding, by ``float``, is correct
    unless the exact tail lies within about 1e-20 (relative) of a midpoint
    between floats.  A tail that fails at 640 digits is below 1e-600: 0.0."""
    from decimal import Decimal, localcontext  # only the p-value loads decimal

    prec = 40
    with localcontext() as ctx:
        while True:
            ctx.prec = prec
            t2 = Decimal(t) ** 2
            x = df / (df + t2)
            odd = df % 2
            term = x.sqrt() if odd else Decimal(1)
            total = term if df > 1 else 0
            for k in range(1, df // 2):
                term = term * x * (2 * k - 1 + odd) / (2 * k + odd)
                total += term
            a = (t2 / (df + t2)).sqrt() * total  # sin(theta) times the sum
            if odd:
                theta = _atan(abs(Decimal(t)) / Decimal(df).sqrt())
                pi = 16 * _atan(Decimal(1) / 5) - 4 * _atan(Decimal(1) / 239)
                a = 2 * (theta + a) / pi
            p = 1 - a
            if p > 0 and p.adjusted() > 25 - prec:
                return float(p)
            if prec == 640:
                return 0.0
            prec *= 2


def _atan(z):
    """arctan of the ``Decimal`` ``z`` >= 0 at the context's precision: the
    angle halved until ``z`` <= 0.1, then the Taylor series."""
    halvings = 0
    while 10 * z > 1:
        z, halvings = z / (1 + (1 + z * z).sqrt()), halvings + 1
    total, power, i = 0, z, 1
    while total + power / i != total:
        total += power / i
        power, i = -power * z * z, i + 2
    return total * 2**halvings


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
    if not 0 < k < float("inf"):
        raise ValueError(f"smoothing constant k must be > 0 and finite, got {k}")
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
