"""The work counts that README and the docstrings quote, counted.

One serial pass makes the parse calls of the 96-grammar ``pipeline --scale
0.1 --seed 11``: each grammar's splits with its Long templates, its targeted
sets and its minimal pairs (the n-gram steps and the writers parse
nothing).  Wrapped functions count the work, and each quoted sentence must
state what the pass counted, so a change that moves the work updates the
prose in the same diff.  The agenda statistics are read from the charts the
Long sampler's fills return.  The size of the process-wide rule memo is
read after the pass and the full census, from an empty memo.  The rule
lookups of the census set-up are counted over the 96 permuting universes,
with the walk of ``tests/oracle.py`` as the baseline.
"""

import json
from collections import Counter
from pathlib import Path

import oracle
from alforge import cli
from alforge import parser as parser_module
from alforge import templates as templates_module
from alforge.cli import RunConfig, build_dataset, pair_set, targeted_set
from alforge.corpus import PAIR_KINDS, TARGETED_KINDS, Lexicon
from alforge.grammars import enumerate_grammars, grammar_by_id
from alforge.parser import ChartParser, _rule_results
from alforge.templates import _template, category_universe, enumerate_templates

from oracle import reference_universe

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
CENSUS = ROOT / "perfbench" / "refs" / "census.json"
COMBINATORS = ROOT / "src" / "alforge" / "combinators.py"

CONCATENATION, COORDINATION, INSERTION = 0, 1, 2  # the ops of ``templates._extend``


def count_agenda(counts: Counter, chart, conjs) -> None:
    """Adds to ``counts`` what a fill of ``chart`` does.  Over the cells of
    two or more tokens: the cells and the empty ones; for a fill of every
    span in length order (``oracle.reference_fill``), the splits with a
    non-empty left half it takes, those with a non-empty right half too, and
    the turns of its per-cell conjunction loop; for the agenda, the cells
    with a split into two non-empty halves or a conjunction between two,
    which are the cells it visits, and its coordinations."""
    n = len(chart) - 1
    ends = [sum(1 << k for k, cell in enumerate(row) if cell) for row in chart]
    starts = [sum(1 << i for i in range(j) if chart[i][j]) for j in range(n + 1)]
    conj_mask = sum(1 << p for p in conjs)
    empty = splits = right_splits = visited = coordinations = 0
    for i in range(n - 1):
        row, left = chart[i], ends[i]
        for j in range(i + 2, n + 1):
            right = left & starts[j]
            coords = left & conj_mask & starts[j] >> 1
            empty += not row[j]
            splits += (left & ((1 << j) - 1)).bit_count()
            right_splits += right.bit_count()
            visited += bool(right or coords)
            coordinations += coords.bit_count()
    cells = n * (n - 1) // 2
    counts.update({"cells": cells, "empty cells": empty, "splits": splits,
                   "right splits": right_splits, "conjunction turns": cells * len(conjs),
                   "visited cells": visited, "coordinations": coordinations})


def counted_run(monkeypatch) -> Counter:
    """Counts of one serial pass: ``parse`` calls, inputs ``_balanced``
    settles, chart fills, the census sequences the heuristics drop, and per
    Long operator the candidates that pass the heuristics, the ones
    accepted, the balance rejections, the fills and their agenda
    statistics (``count_agenda``)."""
    counts = Counter()
    census = False  # whether enumerate_templates is running
    drawn = None  # the operator of the Long candidate just built
    pending = None  # the operator of the Long candidate whose parse comes next
    long_op = None  # the operator of the Long candidate being parsed, if any
    enumerate_, extend = cli.enumerate_templates, templates_module._extend
    heuristic_filter = templates_module.heuristic_filter
    parse, balanced, fill = ChartParser.parse, ChartParser._balanced, ChartParser._fill

    def counted_enumerate(grammar, max_len):
        nonlocal census
        census = True
        try:
            return enumerate_(grammar, max_len)
        finally:
            census = False

    def counted_extend(op, *args):
        nonlocal drawn
        drawn = op
        return extend(op, *args)

    def counted_filter(key):
        nonlocal pending
        ok = heuristic_filter(key)
        if census:
            counts["census"] += 1
            if not ok:
                t = _template(key)
                counts["dropped", len(t) <= 5, ("PREP", "PREP") in zip(t, t[1:])] += 1
            return ok
        counts["candidates", drawn] += ok
        counts["accepted", drawn] += ok and drawn == COORDINATION
        pending = drawn if ok and drawn != COORDINATION else None
        return ok

    def counted_parse(self, seq, **kw):
        nonlocal pending, long_op
        long_op, pending = pending, None
        counts["parses"] += 1
        try:
            result = parse(self, seq, **kw)
        finally:
            op, long_op = long_op, None
        if op is not None:
            counts["accepted", op] += result.grammatical
        return result

    def counted_balanced(self, codes):
        ok = balanced(self, codes)
        counts["settled"] += not ok
        counts["rejected", long_op] += not ok
        return ok

    def counted_fill(self, codes):
        counts["fills", long_op] += 1
        got = fill(self, codes)
        if long_op is not None:
            count_agenda(counts, got[0], got[1])
        return got

    monkeypatch.setattr(cli, "enumerate_templates", counted_enumerate)
    monkeypatch.setattr(templates_module, "_extend", counted_extend)
    monkeypatch.setattr(templates_module, "heuristic_filter", counted_filter)
    monkeypatch.setattr(ChartParser, "parse", counted_parse)
    monkeypatch.setattr(ChartParser, "_balanced", counted_balanced)
    monkeypatch.setattr(ChartParser, "_fill", counted_fill)
    _rule_results.cache_clear()
    cfg = RunConfig(master_seed=11).scaled(0.1)
    lex = Lexicon.default()
    for g in enumerate_grammars():
        parser = ChartParser(g.policy)
        sets = build_dataset(g, cfg, lex, parser)
        for kind in TARGETED_KINDS:
            targeted_set(g, cfg, kind, lex, parser)
        for kind in PAIR_KINDS:
            pair_set(g, cfg, kind, sets["MediumTest"], lex, parser)
    return counts


def prose(text: str) -> str:
    return " ".join(text.split())


def millions(count: int) -> str:
    return f"{count / 1e6:.2f}M"


def missing_quotes(quotes: dict) -> list:
    return [(where, quote) for where, (text, wanted) in quotes.items()
            for quote in wanted if quote not in prose(text)]


def test_quoted_counts_are_counted(monkeypatch):
    c = counted_run(monkeypatch)
    monkeypatch.undo()  # the docstrings below are the unwrapped functions'
    for rec in json.loads(CENSUS.read_text()):
        enumerate_templates(grammar_by_id(rec["grammar"]), rec["max_len"])
    memo = f"{_rule_results.cache_info().currsize:,} entries"
    cand = {op: c["candidates", op] for op in (CONCATENATION, COORDINATION, INSERTION)}
    acc = {op: c["accepted", op] for op in cand}
    rej = {op: c["rejected", op] for op in cand}
    fills = {op: c["fills", op] for op in cand}
    long_fills = fills[CONCATENATION] + fills[INSERTION]
    # every Long candidate past the heuristics is settled once: coordinations
    # by construction, the others by the balance test or by a chart
    assert fills[COORDINATION] == rej[COORDINATION] == 0 and acc[COORDINATION] == cand[COORDINATION]
    assert all(rej[op] + fills[op] == cand[op] for op in (CONCATENATION, INSERTION))
    settled = f"settles {c['settled']:,} of the {c['parses']:,} parse calls"
    # the heuristics drop no census sequence of length <= 5, and each drop
    # is for PREP PREP
    dropped = sum(n for key, n in c.items() if key[0] == "dropped")
    assert dropped == c["dropped", False, True] > 0
    heuristics = f"{dropped:,} of the {c['census']:,} grammatical sequences of length"
    empty = f"{millions(c['empty cells'])} of the {millions(c['cells'])} cells of two or more tokens"
    splits, right = millions(c["splits"]), millions(c["right splits"])
    visits = f"the agenda visits {millions(c['visited cells'])} cells and takes"
    quotes = {
        "README.md": (README.read_text(), [
            f"concatenation is accepted for {acc[CONCATENATION]:,} of {cand[CONCATENATION]:,} "
            f"and insertion for {acc[INSERTION]:,} of {cand[INSERTION]:,}, and all "
            f"{cand[COORDINATION]:,} coordinations are accepted",
            f"rejects {rej[CONCATENATION]:,} of the concatenations and {rej[INSERTION]:,} of the "
            f"insertions without filling a chart",
            f"Over the {long_fills:,} chart fills of the Long sampler",
            f"it {settled}",
            f"({memo} after a 96-grammar `pipeline` and the full census in one process",
            f"they drop {heuristics} 3–10 and none of length ≤ 5",
            f"{empty} are empty",
            f"takes {splits} splits, {right} of them with a non-empty right half; "
            f"{visits} only those {right} splits",
        ]),
        "alforge.parser": (parser_module.__doc__, [
            f"Over the {long_fills:,} fills of the Long sampler",
            f"{empty} are empty",
            f"takes {splits} splits of which {right} have a non-empty right half, and turns a "
            f"per-cell conjunction loop {millions(c['conjunction turns'])} times; {visits} those "
            f"{right} splits and {millions(c['coordinations'])} coordinations",
        ]),
        "ChartParser._balanced": (ChartParser._balanced.__doc__, [f"it {settled}"]),
        "_rule_results": (_rule_results.__doc__, [f"plus the full census leaves {memo} in it"]),
        "heuristic_filter": (templates_module.heuristic_filter.__doc__, [
            f"it drops {heuristics} 3-10"]),
        "sample_long_templates": (templates_module.sample_long_templates.__doc__, [
            f"accepted for {acc[CONCATENATION]:,} of {cand[CONCATENATION]:,} candidates that pass "
            f"the heuristics, all {cand[COORDINATION]:,} coordinations are decided by "
            f"construction, and insertion (CONJ t2 inside t1) is accepted for "
            f"{acc[INSERTION]:,} of {cand[INSERTION]:,}",
            f"rejects {rej[CONCATENATION]:,} of those concatenations and {rej[INSERTION]:,} of "
            f"those insertions before it fills a chart, and fills one for the other "
            f"{fills[CONCATENATION]:,} and {fills[INSERTION]:,}",
        ]),
    }
    missing = missing_quotes(quotes)
    assert not missing, missing


def test_quoted_rule_lookups_are_counted(monkeypatch):
    """The census set-up's ``_rule_results`` lookups over the 96 permuting
    universes, against the walk over every ordered pair of codes."""
    lookups = Counter()

    def counting(module, name):
        real = module._rule_results

        def counted(x, y):
            lookups[name] += 1
            return real(x, y)
        monkeypatch.setattr(module, "_rule_results", counted)

    counting(templates_module, "indexed")
    counting(oracle, "every pair")
    for g in enumerate_grammars():
        category_universe(g, True)
        reference_universe(g, True)
    quote = f"about {lookups['indexed']:,} of {lookups['every pair']:,} pairs"
    assert not missing_quotes({"combinators.py": (COMBINATORS.read_text(), [quote])})
