"""Micro-benchmarks of the categories and combinators layers, run inside the
traced worker after its traced passes.  They time the operations the chart
parser and the category universe repeat most (hashing, equality, rule
application, coordination) over the category universes of a seeded sample of
grammars.  Each figure is the median over ROUNDS of the mean cost per call.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

SAMPLE_GRAMMARS = 6
RULE_PAIRS_PER_GRAMMAR = 1500
ROUNDS = 5


def _per_call_ns(fn, items) -> float:
    """Median over ROUNDS of the mean nanoseconds of fn(item)."""
    rounds = []
    for _ in range(ROUNDS):
        t = perf_counter_ns()
        for item in items:
            fn(item)
        rounds.append((perf_counter_ns() - t) / len(items))
    return statistics.median(rounds)


def micro_metrics(seed: int, grammars: dict) -> dict[str, float]:
    from alforge.categories import format_category, parse_category
    from alforge.combinators import BINARY_RULES, coordinate
    from alforge.templates import category_universe

    rng = random.Random(f"micro:{seed}")
    cats, pairs, coords = [], [], []
    for gid in rng.sample(sorted(grammars), SAMPLE_GRAMMARS):
        g = grammars[gid]
        universe = sorted(category_universe(g, True)[0], key=format_category)
        cats.extend(universe)
        pairs.extend((rng.choice(universe), rng.choice(universe))
                     for _ in range(RULE_PAIRS_PER_GRAMMAR))
        conj = g.category("CONJ")
        coords.extend((c, conj) for c in universe)

    fresh = [parse_category(format_category(c)) for c in cats]
    same = list(zip(cats, fresh))
    rule_calls = [(fn, a, b) for a, b in pairs for _rule, fn in BINARY_RULES]
    hits = sum(fn(a, b) is not None for fn, a, b in rule_calls)
    return {
        "categories.hash_ns": _per_call_ns(hash, fresh),
        "categories.eq_ns": _per_call_ns(lambda p: p[0] == p[1], same),
        "categories.roundtrip_us": _per_call_ns(
            lambda c: parse_category(format_category(c)), cats) / 1e3,
        "combinators.rule_apply_ns": _per_call_ns(lambda r: r[0](r[1], r[2]), rule_calls),
        "combinators.rule_hit_ratio": hits / len(rule_calls),
        "combinators.coordinate_ns": _per_call_ns(lambda p: coordinate(p[0], p[1], p[0]), coords),
    }
