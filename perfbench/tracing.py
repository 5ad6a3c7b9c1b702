"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

Spans wrap calls into the public functions of each alforge module.  The
wrappers are installed from outside the package: every module attribute that
is bound to a wrapped function is rebound, because alforge.cli (and others)
import names with ``from .x import y``.  A span records its name, start and
end (perf_counter_ns), its parent span in the same thread, the grammar id as
request id, its busy time, and a few facts about the call used by the
metrics below.

Busy time is the thread CPU time spent inside the span.  The pipeline runs
grammars on two threads that share the interpreter lock, so a span's wall
time also counts the other thread's turns; the per-layer times below are
busy times, and add up to at most the process's CPU time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns, thread_time_ns


class Span:
    __slots__ = ("name", "parent", "rid", "start", "end", "busy", "info")

    def __init__(self, name, parent, rid):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = self.end = self.busy = 0
        self.info = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self.grammar_type: type | None = None  # set by install()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(name, parent, rid)
        self.spans.append(span)
        stack.append(span)
        span.busy = thread_time_ns()
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        span.busy = thread_time_ns() - span.busy
        self._stack().pop()

    @contextmanager
    def span(self, name: str, rid=None):
        span = self._open(name, rid)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, self._request_id(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _request_id(self, args):
        """The grammar id of the first Grammar or grammar-id argument."""
        for a in args[:2]:
            if isinstance(a, self.grammar_type):
                return a.params
            if isinstance(a, str) and len(a) == 7 and set(a) <= {"0", "1"}:
                return a
        return None

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end, "busy_ns": s.busy,
                    "parent": ids.get(id(s.parent)), "request": s.rid, "info": s.info,
                }) + "\n")


def _tokens(sentences) -> int:
    return sum(len(s.tokens) for s in sentences) if isinstance(sentences, list) else 0


def _max_len(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs.get("max_len", 10)


# span name -> (module, attribute, info(args, kwargs, result) or None)
TARGETS = {
    "grammars.enumerate": ("alforge.grammars", "enumerate_grammars", None),
    "grammars.categorize": ("alforge.grammars", "Grammar.categorize", None),
    "templates.category_universe": (
        "alforge.templates", "category_universe", lambda a, k, r: {"size": len(r[0])}),
    "templates.enumerate": (
        "alforge.templates", "enumerate_templates",
        lambda a, k, r: {"count": len(r), "max_len": _max_len(a, k)}),
    "templates.is_grammatical": (
        "alforge.templates", "is_grammatical", lambda a, k, r: {"ok": r}),
    "templates.sample_long": ("alforge.templates", "sample_long_templates", None),
    "parser.parse": (
        "alforge.parser", "ChartParser.parse",
        lambda a, k, r: {"n": len(a[1]), "ok": r.grammatical,
                         "derivations": bool(k.get("derivations"))}),
    "parser.derivation_check": ("alforge.parser", "derivation_check", None),
    "corpus.sample_split": (
        "alforge.corpus", "sample_split", lambda a, k, r: {"sentences": len(r)}),
    "corpus.gen_targeted": ("alforge.corpus", "gen_targeted", None),
    "corpus.gen_pairs": ("alforge.corpus", "gen_minimal_pairs", None),
    "corpus.save_sentences": ("alforge.corpus", "save_sentences", None),
    "corpus.load_sentences": ("alforge.corpus", "load_sentences", None),
    "evaluation.ngram_train": (
        "alforge.evaluation", "ngram_train", lambda a, k, r: {"tokens": _tokens(a[0])}),
    "evaluation.ngram_score": (
        "alforge.evaluation", "ngram_score", lambda a, k, r: {"tokens": _tokens(a[1])}),
    "evaluation.save_scores": ("alforge.evaluation", "save_scores", None),
    "evaluation.ta_score": ("alforge.evaluation", "ta_score", None),
    "cli.build_dataset": ("alforge.cli", "build_dataset", None),
    "cli.pipeline_one": ("alforge.cli", "_pipeline_one", None),
}


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each alforge module attribute that is
    bound to an original.  Call after importing alforge.cli."""
    modules = [m for name, m in sys.modules.items()
               if name == "alforge" or name.startswith("alforge.")]
    tracer.grammar_type = sys.modules["alforge.grammars"].Grammar
    for name, (module, attr, info) in TARGETS.items():
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], info))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, info)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# --- per-layer metrics ------------------------------------------------------

PARSE_BANDS = {"short": (3, 8), "medium": (9, 10), "long": (11, 20)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Span-derived per-layer metrics, from busy times.  A layer the workload
    never calls reports 0 for its times and counts."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def seconds(name: str) -> float:
        return sum(s.busy for s in by_name[name]) / 1e9

    def info_sum(name: str, key: str) -> float:
        return sum(s.info[key] for s in by_name[name])

    m: dict[str, float] = {}

    parses = by_name["parser.parse"]
    m["parser.parse_calls"] = len(parses)
    m["parser.parse_s"] = seconds("parser.parse")
    for band, (lo, hi) in PARSE_BANDS.items():
        ms = [s.busy / 1e6 for s in parses if lo <= s.info["n"] <= hi]
        m[f"parser.parse_ms.{band}.p50"] = percentile(ms, 0.50)
        m[f"parser.parse_ms.{band}.p99"] = percentile(ms, 0.99)
    m["parser.grammatical_ratio"] = _ratio(sum(s.info["ok"] for s in parses), len(parses))
    m["parser.derivations_s"] = sum(s.busy for s in parses if s.info["derivations"]) / 1e9
    m["parser.derivation_check_s"] = seconds("parser.derivation_check")

    m["grammars.enumerate_s"] = seconds("grammars.enumerate")
    m["grammars.categorize_s"] = seconds("grammars.categorize")

    enums = by_name["templates.enumerate"]
    m["templates.enumerate_s"] = seconds("templates.enumerate")
    m["templates.enumerate_s.max"] = max((s.busy for s in enums), default=0) / 1e9
    m["templates.count"] = sum(s.info["count"] for s in enums if s.info["max_len"] <= 10)
    m["templates.count_gt10"] = sum(s.info["count"] for s in enums if s.info["max_len"] > 10)
    m["templates.universe_size.max"] = max(
        (s.info["size"] for s in by_name["templates.category_universe"]), default=0)
    samplers = by_name["templates.sample_long"]
    checks = [c for s in samplers for c in children[id(s)] if c.name == "templates.is_grammatical"]
    m["templates.long_sample_s"] = seconds("templates.sample_long")
    m["templates.long_parse_checks"] = len(checks)
    m["templates.long_accept_ratio"] = _ratio(sum(c.info["ok"] for c in checks), len(checks))
    m["templates.long_self_s"] = sum(
        s.busy - sum(c.busy for c in children[id(s)]) for s in samplers) / 1e9

    pair_parses = [c for s in by_name["corpus.gen_pairs"] for c in children[id(s)]
                   if c.name == "parser.parse"]
    m["corpus.sample_split_s"] = seconds("corpus.sample_split")
    m["corpus.sentences"] = info_sum("corpus.sample_split", "sentences")
    m["corpus.gen_targeted_s"] = seconds("corpus.gen_targeted")
    m["corpus.gen_pairs_s"] = seconds("corpus.gen_pairs")
    m["corpus.pair_parse_checks"] = len(pair_parses)
    # a twin is accepted as the ungrammatical half of a pair iff it fails
    m["corpus.pair_accept_ratio"] = _ratio(
        sum(not c.info["ok"] for c in pair_parses), len(pair_parses))
    m["corpus.save_sentences_s"] = seconds("corpus.save_sentences")
    m["corpus.load_sentences_s"] = seconds("corpus.load_sentences")

    m["evaluation.ngram_train_tokens_per_s"] = _ratio(
        info_sum("evaluation.ngram_train", "tokens"), seconds("evaluation.ngram_train"))
    m["evaluation.ngram_score_tokens_per_s"] = _ratio(
        info_sum("evaluation.ngram_score", "tokens"), seconds("evaluation.ngram_score"))
    m["evaluation.save_scores_s"] = seconds("evaluation.save_scores")
    m["evaluation.ta_score_s"] = seconds("evaluation.ta_score")

    grammar_s = [s.busy / 1e9 for s in by_name["cli.pipeline_one"]]
    m["cli.build_dataset_s"] = seconds("cli.build_dataset")
    m["cli.grammar_s.p50"] = percentile(grammar_s, 0.50)
    m["cli.grammar_s.max"] = max(grammar_s, default=0.0)
    m["trace.spans"] = len(spans)
    return m
