"""Template enumeration, heuristic filtering, and Long-set augmentation.

Templates are sequences of lexical-class labels.  Enumeration works bottom-up
over the grammar's finite category universe (the lexical categories closed
under application, first-order composition, coordination and permutation),
which makes exhaustive generation up to length 10 tractable where raw 11^10
prefix search is not.  Equivalence with brute-force search is checked at
small lengths by the test suite.

The universe and the bottom-up language build run on the integer codes of a
``parser.RuleTable``, the same lazily filled table type the chart parser
uses, and its entries are closed under rotation as chart cells are, with
``RuleTable.closure``.  Each ``grammatical_sequences`` call builds the
permuting universe once; the non-permuting language of a ``require_rel``
grammar reads the same table and triples.  The build keeps a (length,
category) entry only while it can still sit inside an S of length <=
max_len, an outside estimate by span length as in A* parsing
(``_length_bounds``); the pruning is exact.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .categories import S, Category
from .combinators import coordinable
from .grammars import LEXICAL_CLASSES, Grammar
from .parser import ChartParser, RuleTable

Template = tuple[str, ...]

_MARKERS = ("SUBJ", "OBJ")
LONG_ATTEMPTS_FACTOR = 2000  # sample_long_templates: draws per wanted template


def heuristic_filter(classes) -> bool:
    """True iff the template survives the eight filtering heuristics.

    The filter runs after the parse check and prunes grammatical sequences
    by design: over the 96 grammars it drops 7,744 of the 118,424
    grammatical sequences of length 3-10 (e.g. ``NP NP PREP PREP NP SUBJ
    VI`` under 0000000) and none of length <= 5, which is why the
    heuristic-soundness acceptance criterion stops at length 5."""
    t = tuple(classes)
    if len(t) < 3:
        return False
    if t[0] == "CONJ" or t[-1] == "CONJ":
        return False
    for a, b in zip(t, t[1:]):
        if a == b == "CONJ":
            return False
        if a == b == "PREP":
            return False
    if t[0] in _MARKERS:
        return False
    if sum(t.count(m) for m in _MARKERS) > t.count("NP"):
        return False
    if "COMP" in t and "VCOMP" not in t:
        return False
    return True


Triple = tuple[int, int, tuple[int, ...]]  # (left code, right code, result codes)
Universe = tuple[set[Category], RuleTable, list[Triple]]  # (categories, table, triples)


def category_universe(grammar: Grammar, permutation_active: bool) -> Universe:
    """Closure of the lexical categories under the rules (and, with
    ``permutation_active``, under ``RuleTable.closure``), the rule table
    whose binary results over that closure are now all filled in, and the
    productive pairs of the closure: one (a, b, distinct direct results)
    triple per ordered pair of codes with at least one binary result.
    Conjunction is excluded (it feeds the ternary coordination rule only,
    which creates no new categories)."""
    table = RuleTable()
    codes: set[int] = set()
    pending: list[int] = []

    def reach(a: int) -> None:
        closed = table.closure(a, permutation_active)
        for c in range(len(table.cats)):
            if closed >> c & 1 and c not in codes:
                codes.add(c)
                pending.append(c)

    for cls, cat in grammar.lexicon:
        if cls != "CONJ":
            reach(table.code(cat))

    triples: list[Triple] = []
    while pending:
        new = set(pending)
        pending = []
        pairs = [(a, b) for a in new for b in codes] + [
            (a, b) for a in codes for b in new if a not in new
        ]
        for a, b in pairs:
            results = table.combine(a, b)
            if not results:
                continue
            outs = tuple(dict.fromkeys(out for _rule, out in results))
            triples.append((a, b, outs))
            for out in outs:
                reach(out)
        if len(codes) > 2000:
            raise RuntimeError("category universe failed to close")
    return {table.cats[c] for c in codes}, table, triples


def _length_bounds(
    codes, lexical, triples: list[Triple], s: int, cap: int
) -> tuple[dict[int, int], dict[int, int]]:
    """(minlen, need) over ``codes``, both capped at ``cap``, from closed
    triples (a pair's results with their rotations, see ``_language``).

    minlen[c] is the fewest classes that derive c: 1 for lexical codes, and
    each triple a b -> c lowers minlen[c] to minlen[a] + minlen[b].  need[c]
    is the fewest classes that surround a c constituent in any S: need[s] =
    0, and each triple lowers need[a] to need[c] + minlen[b] and need[b] to
    need[c] + minlen[a], for the least need[c] among its results.  Both are
    shortest-path fixed points, so each is a lower bound on every actual
    derivation; coordination (c CONJ c -> c) only ever raises a length and
    is left out.  A capped value stands for "more than cap - 1"."""
    minlen = dict.fromkeys(codes, cap)
    for a in lexical:
        minlen[a] = 1
    changed = True
    while changed:
        changed = False
        for a, b, results in triples:
            m = min(minlen[a] + minlen[b], cap)
            for c in results:
                if m < minlen[c]:
                    minlen[c] = m
                    changed = True

    need = dict.fromkeys(codes, cap)
    need[s] = 0
    changed = True
    while changed:
        changed = False
        for a, b, results in triples:
            outside = min(need[c] for c in results)
            if outside + minlen[b] < need[a]:
                need[a] = outside + minlen[b]
                changed = True
            if outside + minlen[a] < need[b]:
                need[b] = outside + minlen[a]
                changed = True
    return minlen, need


def _language(
    grammar: Grammar, build: Universe, permuting: bool, max_len: int
) -> list[set[Template]]:
    """out[n] = the class tuples of length n that derive S, for n <= max_len,
    with permutation on or off, read from ``category_universe(grammar, True)``.

    Entries are closed under rotation the way chart cells are: a lexical
    class enters at every code of its category's ``RuleTable.closure``, and
    each productive pair yields the closure of its results (its closed
    results).  The permuting build is exact with permutation off too:
    there the closure is the identity, so the closed results are the
    direct ones; every code reachable without a rotation is in the
    permuting universe, with the same productive pairs, and a code
    reachable only through a rotation keeps minlen = cap (every triple that
    yields one has such a child), so it lowers no reachable code's minlen or
    need, and it never receives a string.

    Built bottom-up over category codes: strings[n] maps each code c to the
    class tuples of length n deriving it, but only while n + need[c] <=
    max_len (``_length_bounds``), i.e. while a c of length n can still sit
    inside an S of length <= max_len.  The pruning is exact: need[c] is a
    lower bound on the classes around any c constituent of an S, so a
    dropped entry is part of no S derivation within max_len; and every
    child of a kept entry is kept (for a b -> c with c among the closed
    results and children of lengths n1 and n2, need[a] <= need[c] +
    minlen[b] <= need[c] + n2, so n1 + need[a] <= n + need[c]; a
    coordination's conjuncts likewise), so each kept entry holds the same
    tuples as with no pruning.  Binary steps loop over the closed triples
    and drop pruned result codes before building a cross-product."""
    cats, table, triples = build
    universe = {table.code(c) for c in cats}
    s = table.code(S)

    lex_level: dict[int, set[Template]] = defaultdict(set)
    for cls, cat in grammar.lexicon:
        if cls != "CONJ":
            closed = table.closure(table.code(cat), permuting)
            for c in universe:
                if closed >> c & 1:
                    lex_level[c].add((cls,))

    closed_triples: list[Triple] = []
    for a, b, results in triples:
        closed = 0
        for c in results:
            closed |= table.closure(c, permuting)
        closed_triples.append((a, b, tuple(c for c in universe if closed >> c & 1)))

    need = _length_bounds(universe, lex_level, closed_triples, s, max_len + 1)[1]
    coordinating = [c for c in universe if table.coordinating >> c & 1]

    strings: list[dict[int, set[Template]]] = [dict() for _ in range(max_len + 1)]
    strings[1] = {a: strs for a, strs in lex_level.items() if need[a] <= max_len - 1}

    for n in range(2, max_len + 1):
        budget = max_len - n
        partners: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
        for a, b, results in closed_triples:
            kept = tuple(c for c in results if need[c] <= budget)
            if kept:
                partners[a].append((b, kept))
        level: dict[int, set[Template]] = defaultdict(set)
        for n1 in range(1, n):
            left, right = strings[n1], strings[n - n1]
            for a, a_strs in left.items():
                for b, kept in partners.get(a, ()):
                    b_strs = right.get(b)
                    if not b_strs:
                        continue
                    joined = {sa + sb for sa in a_strs for sb in b_strs}
                    for c in kept:
                        level[c].update(joined)
        live = [c for c in coordinating if need[c] <= budget]
        for n1 in range(1, n - 1):
            left, right = strings[n1], strings[n - 1 - n1]
            for c in live:
                a_strs, b_strs = left.get(c), right.get(c)
                if a_strs and b_strs:
                    level[c].update(sa + ("CONJ",) + sb for sa in a_strs for sb in b_strs)
        strings[n] = dict(level)

    return [level.get(s, set()) for level in strings]


def enumerate_templates(grammar: Grammar, max_len: int = 10) -> list[Template]:
    """Every class sequence of length 3..max_len that passes the heuristics
    and parses to root S, in lexicographic order."""
    if max_len < 3:
        return []
    lang = grammatical_sequences(grammar, max_len)
    return sorted(t for n in range(3, max_len + 1) for t in lang[n] if heuristic_filter(t))


def grammatical_sequences(grammar: Grammar, max_len: int) -> dict[int, set[Template]]:
    """All parse-grammatical class sequences up to ``max_len``, without the
    heuristic filter.  Under ``require_rel`` a sequence with REL is judged
    with permutation and one without REL without it.  Both modes read one
    closure, the permuting one."""
    build = category_universe(grammar, True)
    lang = _language(grammar, build, True, max_len)
    if not grammar.policy.require_rel:
        return {n: lang[n] for n in range(1, max_len + 1)}
    plain = _language(grammar, build, False, max_len)
    return {
        n: {t for t in lang[n] if "REL" in t} | {t for t in plain[n] if "REL" not in t}
        for n in range(1, max_len + 1)
    }


def _extend(op: int, t1: Template, t2: Template, i: int) -> Template:
    """The Long extension operators: op 0 concatenates t1 t2, op 1 joins
    t1 CONJ t2, and op 2 inserts CONJ t2 into t1 before position i."""
    if op == 0:
        return t1 + t2
    if op == 1:
        return t1 + ("CONJ",) + t2
    return t1[:i] + ("CONJ",) + t2 + t1[i:]


def is_grammatical(template, grammar: Grammar, parser: ChartParser | None = None) -> bool:
    parser = parser or ChartParser(grammar.policy)
    return parser.parse(grammar.categorize(template)).grammatical


def sample_long_templates(
    templates,
    grammar: Grammar,
    per_length: int,
    min_len: int = 11,
    max_len: int = 20,
    seed: int = 0,
    parser: ChartParser | None = None,
) -> list[Template]:
    """Long templates by extension of ``templates``: draws random template
    pairs and extension operators (``_extend``) until every length in
    [min_len, max_len] has ``per_length`` candidates that pass the
    heuristics and derive S under ``grammar`` (or attempts run out, which
    raises).

    Every source template must derive S under ``grammar``, as
    ``enumerate_templates`` output does by construction.  A ``t1 CONJ t2``
    candidate that passes the heuristics is then accepted without a parse
    whenever S is ``coordinable``: the chart cells over t1 and t2
    hold S, so the coordination rule puts S over the whole input.  Under
    ``require_rel`` a candidate with REL in one half only is parsed with
    permutation on, while the other half derived S with it off; permuting
    cells are supersets of non-permuting ones (``closure`` only adds
    rotations and ``join`` is monotone), so that half still holds S.  Every
    other candidate is parsed.  The random draws do not depend on how a
    verdict is reached, so the output is the one a parse of every candidate
    gives.

    As implemented, the operators differ sharply.  In the 96-grammar
    pipeline at ``--scale 0.1 --seed 11``, concatenation (``t1 t2``) is
    accepted for 0 of 18,553 candidates that pass the heuristics, all 18,095
    coordinations are decided by construction, and insertion (CONJ t2 inside
    t1) is accepted for 1,105 of 16,828.  The parser's balance test rejects
    9,394 of those concatenations and 3,758 of those insertions before it
    fills a chart (see ``alforge.parser``)."""
    parser = parser or ChartParser(grammar.policy)
    templates = [tuple(t) for t in templates]
    if not templates:
        raise ValueError("no source templates to extend")
    by_len: dict[int, list[Template]] = {}
    for t in sorted(set(templates)):
        by_len.setdefault(len(t), []).append(t)
    rng = random.Random(seed)
    buckets: dict[int, set[Template]] = {n: set() for n in range(min_len, max_len + 1)}
    attempts = LONG_ATTEMPTS_FACTOR * per_length
    for target in sorted(buckets):
        bucket = buckets[target]
        for _ in range(attempts):
            if len(bucket) >= per_length:
                break
            op = rng.randrange(3)
            # concatenation preserves total length; the conjunction ops add 1
            need = target if op == 0 else target - 1
            splits = [
                (a, need - a) for a in by_len if need - a in by_len
            ]
            if not splits:
                continue
            a, b = splits[rng.randrange(len(splits))]
            t1 = rng.choice(by_len[a])
            t2 = rng.choice(by_len[b])
            i = rng.randrange(1, len(t1)) if op == 2 else 0
            cand = _extend(op, t1, t2, i)
            if cand in bucket:
                continue
            if heuristic_filter(cand) and (
                (op == 1 and coordinable(S)) or is_grammatical(cand, grammar, parser)
            ):
                bucket.add(cand)
    short = [n for n, b in buckets.items() if len(b) < per_length]
    if short:
        raise RuntimeError(
            f"could not find {per_length} long templates for lengths {short}"
        )
    return sorted(t for b in buckets.values() for t in b)


def save_templates(templates, path) -> None:
    with open(path, "w") as fh:
        for t in templates:
            fh.write(" ".join(t) + "\n")


def load_templates(path) -> list[Template]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t = tuple(line.split())
            unknown = set(t) - set(LEXICAL_CLASSES)
            if unknown:
                raise ValueError(f"unknown lexical classes: {sorted(unknown)}")
            out.append(t)
    return out
