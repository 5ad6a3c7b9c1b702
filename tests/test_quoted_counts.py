"""The work counts that README and the docstrings quote, counted.

One serial pass makes the parse calls of the 96-grammar ``pipeline --scale
0.1 --seed 11``: each grammar's splits with its Long templates, its targeted
sets and its minimal pairs (the n-gram steps and the writers parse
nothing).  Wrapped functions count the work, and each quoted sentence must
state what the pass counted, so a change that moves the work updates the
prose in the same diff.  The size of the process-wide rule memo is read
after the pass and the full census, from an empty memo.
"""

import json
from collections import Counter
from pathlib import Path

from alforge import parser as parser_module
from alforge import templates as templates_module
from alforge.cli import RunConfig, build_dataset, pair_set, targeted_set
from alforge.corpus import PAIR_KINDS, TARGETED_KINDS, Lexicon
from alforge.grammars import enumerate_grammars, grammar_by_id
from alforge.parser import ChartParser, _rule_results
from alforge.templates import enumerate_templates

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
CENSUS = ROOT / "perfbench" / "refs" / "census.json"

CONCATENATION, COORDINATION, INSERTION = 0, 1, 2  # the ops of ``templates._extend``


def counted_run(monkeypatch) -> Counter:
    """Counts of one serial pass: ``parse`` calls, inputs ``_balanced``
    settles, chart fills, and per Long operator the candidates that pass the
    heuristics, the ones accepted, the balance rejections and the fills."""
    counts = Counter()
    long_op = None  # the operator of the Long candidate being parsed, if any
    extend, is_grammatical = templates_module._extend, templates_module.is_grammatical
    heuristic_filter = templates_module.heuristic_filter
    parse, balanced, fill = ChartParser.parse, ChartParser._balanced, ChartParser._fill
    drawn = None

    def counted_extend(op, *args):
        nonlocal drawn
        drawn = op
        return extend(op, *args)

    def counted_filter(classes):
        ok = heuristic_filter(classes)
        counts["candidates", drawn] += ok
        counts["accepted", drawn] += ok and drawn == COORDINATION
        return ok

    def counted_is_grammatical(template, grammar, parser):
        nonlocal long_op
        long_op = drawn
        try:
            ok = is_grammatical(template, grammar, parser)
        finally:
            long_op = None
        counts["accepted", drawn] += ok
        return ok

    def counted_parse(self, seq, **kw):
        counts["parses"] += 1
        return parse(self, seq, **kw)

    def counted_balanced(self, codes):
        ok = balanced(self, codes)
        counts["settled"] += not ok
        counts["rejected", long_op] += not ok
        return ok

    def counted_fill(self, codes):
        counts["fills", long_op] += 1
        return fill(self, codes)

    monkeypatch.setattr(templates_module, "_extend", counted_extend)
    monkeypatch.setattr(templates_module, "heuristic_filter", counted_filter)
    monkeypatch.setattr(templates_module, "is_grammatical", counted_is_grammatical)
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
        ]),
        "alforge.parser": (parser_module.__doc__, [f"Over the {long_fills:,} fills of the Long sampler"]),
        "ChartParser._balanced": (ChartParser._balanced.__doc__, [f"it {settled}"]),
        "_rule_results": (_rule_results.__doc__, [f"plus the full census leaves {memo} in it"]),
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
    missing = [(where, quote) for where, (text, wanted) in quotes.items()
               for quote in wanted if quote not in prose(text)]
    assert not missing, missing
