"""Template enumeration, heuristic filtering, Long-set augmentation,
``unique_draws``, the one rejection-sampling loop of every sampler, and
``picker``, the one random draw of every sampler.

Templates are sequences of lexical-class labels.  Enumeration works bottom-up
over the grammar's finite category universe (the lexical categories closed
under application, first-order composition, coordination and permutation),
which makes exhaustive generation up to length 10 tractable where raw 11^10
prefix search is not.  Equivalence with brute-force search is checked at
small lengths by the test suite.

The universe and the bottom-up language build run on the integer codes of a
``parser.RuleTable``, the same lazily filled table type the chart parser
uses.  ``category_universe`` walks the table's own code list in code order,
combining each code, in both orders, with the codes up to it that an index
by functor argument and result names as possible partners, so the codes it
interns are walked in turn: the universe is every code of the table, and
the walk records the productive pairs, the ordered pairs of codes with a
binary result.  Each productive pair's results, closed under rotation,
are the chart's own ``RuleTable.join`` of the two codes.  Each
``_build_keys`` call builds the permuting universe once.  For a
grammar whose ``policy`` is set, the language is two disjoint halves, each
made by its own build over the same table and pairs: the permuting build
makes only the sequences with REL, and the non-permuting build only those
without, from a lexicon without REL.  The build keeps a (length, category)
entry only while it can still sit inside an S of length <= max_len, an
outside estimate by span length as in A* parsing (``_length_bounds``); the
pruning is exact.

Inside the build a class sequence is a str key with one character per class,
assigned in label order, so a join is one concatenation and key order is
tuple order.  ``enumerate_templates`` filters (``heuristic_filter``'s rules
run on keys), sorts and decodes only the kept keys, and
``grammatical_sequences`` decodes them all; each decoded element is the
``LEXICAL_CLASSES`` label itself.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .categories import S, Category, Functor
from .grammars import LEXICAL_CLASSES, Grammar
from .parser import ChartParser, RuleTable, _rule_results, bits

Template = tuple[str, ...]

DRAWS_PER_RESULT = 1000  # unique_draws: the draw budget of every sampler, per wanted result


def unique_draws(draw, n: int, taken: set, failure: str) -> list:
    """The first ``n`` >= 1 ``(value, key)`` results of ``draw()`` whose key
    is not in ``taken``, which gains their keys; ``draw()`` returns None for
    a draw its caller rejects.  After ``n * DRAWS_PER_RESULT`` draws, a
    ValueError gives ``failure`` and the count found.  Every sampler (splits,
    targeted sets, Long templates, minimal pairs) draws through this loop."""
    out = []
    for _ in range(n * DRAWS_PER_RESULT):
        result = draw()
        if result is not None and result[1] not in taken:
            taken.add(result[1])
            out.append(result)
            if len(out) == n:
                return out
    raise ValueError(f"{failure} (found {len(out)} of {n})")


def picker(rng: random.Random):
    """``pick(seq)``, the one random draw of every sampler: an element of
    ``seq`` drawn by ``rng`` as ``rng.choice(seq)`` draws it, from the same
    ``getrandbits`` words (CPython's ``Random._randbelow``: with k the bit
    length of n = len(seq), k bits until they are below n; size 1 still
    takes a word).  So ``pick(range(n))`` is ``rng.randrange(n)``, and an
    empty ``seq`` is an IndexError, as for ``choice``."""
    getrandbits = rng.getrandbits

    def pick(seq):
        n = len(seq)
        if not n:
            raise IndexError("cannot pick from an empty sequence")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return pick


# One key character per class, in label order, so key order is tuple order.
_CHAR = {cls: chr(ord("a") + i) for i, cls in enumerate(sorted(LEXICAL_CLASSES))}
_CLASS = {char: cls for cls, char in _CHAR.items()}
_OTHER = "?"  # the character of a label outside LEXICAL_CLASSES, which no heuristic names
_CONJ, _REL, _NP, _SUBJ, _OBJ, _COMP, _VCOMP, _PREP = (
    _CHAR[cls] for cls in ("CONJ", "REL", "NP", "SUBJ", "OBJ", "COMP", "VCOMP", "PREP"))
_NO_FIRST, _CONJ_CONJ, _PREP_PREP = _CONJ + _SUBJ + _OBJ, _CONJ * 2, _PREP * 2


def _key(classes) -> str:
    return "".join([_CHAR.get(cls, _OTHER) for cls in classes])


def _template(key: str) -> Template:
    """The class tuple of a key; each element is the ``LEXICAL_CLASSES``
    label itself, not a copy."""
    return tuple(map(_CLASS.__getitem__, key))


def heuristic_filter(classes) -> bool:
    """True iff the template survives the eight filtering heuristics: at
    least 3 classes; no CONJ first or last; no case marker first; no more
    case markers than NPs; no COMP without a VCOMP; no CONJ CONJ and no
    PREP PREP.

    The filter runs after the parse check and prunes grammatical sequences
    by design: over the 96 grammars it drops 7,744 of the 118,424
    grammatical sequences of length 3-10 (e.g. ``NP NP PREP PREP NP SUBJ
    VI`` under 0000000) and none of length <= 5, which is why the
    heuristic-soundness acceptance criterion stops at length 5.  Every one
    of them is dropped for PREP PREP: the other rules reject no sequence
    that derives S."""
    return _passes(_key(classes))


def _passes(key: str) -> bool:
    """``heuristic_filter`` on a key: every test runs in C."""
    if len(key) < 3 or key[0] in _NO_FIRST or key[-1] == _CONJ:
        return False
    if key.count(_SUBJ) + key.count(_OBJ) > key.count(_NP):
        return False
    if _COMP in key and _VCOMP not in key:
        return False
    return _CONJ_CONJ not in key and _PREP_PREP not in key


Triple = tuple[int, int, tuple[int, ...]]  # (left code, right code, closed result codes)
Universe = tuple[set[Category], RuleTable, list[tuple[int, int]]]  # (cats, table, pairs)


def category_universe(grammar: Grammar, permutation_active: bool) -> Universe:
    """Closure of the lexical categories under the rules (and, with
    ``permutation_active``, under ``RuleTable.closure``), the rule table that
    interned exactly that closure, and its productive pairs: each ordered
    pair of codes (a, b) with a binary result, once.

    One walk over ``table.cats`` in code order, from the closed lexical
    codes: code a meets, in both orders, each b <= a that an index of the
    walked codes by functor argument and result names as a partner (by the
    condition noted at ``combinators.BINARY_RULES``), and each productive
    pair's ``join`` interns its closed results, memoised for ``_language``.
    A code interned on the way is larger than a, so the walk reaches it
    later.  Partners meet in code order, all (a, b) before all (b, a), so
    pairs and codes come in the order of a walk over every b <= a.
    Conjunction is excluded (it feeds the ternary coordination rule only,
    which creates no new categories)."""
    table = RuleTable()
    for cls, cat in grammar.lexicon:
        if cls != "CONJ":
            table.closure(table.code(cat), permutation_active)
    pairs = []
    cats = table.cats  # the list grows as the walk interns
    by_argument: dict[Category, list[int]] = defaultdict(list)
    by_result: dict[Category, list[int]] = defaultdict(list)
    for a, x in enumerate(cats):
        if a == 2000:
            raise RuntimeError("category universe failed to close")
        partners = set(by_argument[x])
        if isinstance(x, Functor):
            by_argument[x.argument].append(a)
            by_result[x.result].append(a)
            partners.update(by_argument[x.result], by_result[x.argument])
            if (b := table.find(x.argument)) is not None and b <= a:
                partners.add(b)
        partners = sorted(partners)
        for p, q in [(a, b) for b in partners] + [(b, a) for b in partners if b < a]:
            if _rule_results(cats[p], cats[q]):
                pairs.append((p, q))
                table.join(1 << p, 1 << q, permutation_active)
    return set(table.cats), table, pairs


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
) -> list[set[str]]:
    """out[n] = the keys (``_key``) of the class sequences of length n that
    derive S, for n <= max_len, with permutation on or off, read from
    ``category_universe(grammar, True)``.  For a grammar whose ``policy`` is
    set, each build makes only the half that ``_build_keys`` keeps: with
    permutation on, the sequences with REL; with it off, those without.

    Entries are closed under rotation the way chart cells are: a lexical
    class enters at every code of its category's ``RuleTable.closure``, and
    each productive pair (a, b) of the build yields ``table.join(1 << a,
    1 << b)``, the chart's memo of the closure of its results (its closed
    results, which form the closed triples).  The universe is every code of
    the build's table: the walk interns no code it does not reach.  The
    permuting build is exact with permutation off too: there the closure is
    the identity, so the closed results are the direct ones; every code
    reachable without a rotation is in the permuting universe, with the same
    productive pairs, and a code reachable only through a rotation keeps
    minlen = cap (every triple that yields one has such a child), so it
    lowers no reachable code's minlen or need, and it never receives a
    string.

    Built bottom-up over category codes: strings[n] maps each code c to the
    keys of the class sequences of length n deriving it, but only while n +
    need[c] <= max_len (``_length_bounds``), i.e. while a c of length n can still sit
    inside an S of length <= max_len.  The pruning is exact: need[c] is a
    lower bound on the classes around any c constituent of an S, so a
    dropped entry is part of no S derivation within max_len; and every
    child of a kept entry is kept (for a b -> c with c among the closed
    results and children of lengths n1 and n2, need[a] <= need[c] +
    minlen[b] <= need[c] + n2, so n1 + need[a] <= n + need[c]; a
    coordination's conjuncts likewise), so each kept entry holds the same
    keys as with no pruning.  The closed triples are ranked once by the
    least need among their results, so each level's binary steps read only
    the prefix with a result within its budget, and drop pruned result codes
    (when the greatest need is over budget) before building a cross-product.

    Both halves are exact.  With permutation off, REL never enters the
    lexical level: a sequence without REL derives only from classes other
    than REL, and minlen and need over the smaller lexicon are still shortest
    paths over every derivation it has, so the pruning stays exact.  With
    permutation on, every level is built in full except the last (n ==
    max_len), which joins only the pairs with REL in one half, in the binary
    and the coordination steps alike: there a budget of 0 keeps only S
    (every other code has need >= 1), and no longer entry reads the level.
    The S keys of the shorter levels lose those without REL on return."""
    _cats, table, pairs = build
    s = table.code(S)
    universe = range(len(table.cats))
    halved = grammar.policy is not None  # each build makes only the half it keeps
    skipped = ("CONJ", "REL") if halved and not permuting else ("CONJ",)

    lex_level: dict[int, set[str]] = defaultdict(set)
    for cls, cat in grammar.lexicon:
        if cls not in skipped:
            for c in bits(table.closure(table.code(cat), permuting)):
                lex_level[c].add(_CHAR[cls])

    closed_triples = [(a, b, tuple(bits(table.join(1 << a, 1 << b, permuting))))
                      for a, b in pairs]
    need = _length_bounds(universe, lex_level, closed_triples, s, max_len + 1)[1]
    coordinating = list(bits(table.coordinating))
    ranked = sorted((min(need[c] for c in results), max(need[c] for c in results), a, b, results)
                    for a, b, results in closed_triples)  # by least need of the results

    strings: list[dict[int, set[str]]] = [dict() for _ in range(max_len + 1)]
    strings[1] = {a: strs for a, strs in lex_level.items() if need[a] <= max_len - 1}

    for n in range(2, max_len + 1):
        budget = max_len - n
        rel_only = halved and permuting and n == max_len  # S strings with REL only
        partners: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
        for least, greatest, a, b, results in ranked:
            if least > budget:
                break
            partners[a].append((b, results if greatest <= budget else
                                tuple(c for c in results if need[c] <= budget)))
        level: dict[int, set[str]] = defaultdict(set)
        for n1 in range(1, n):
            left, right = strings[n1], strings[n - n1]
            for a, a_strs in left.items():
                for b, kept in partners.get(a, ()):
                    b_strs = right.get(b)
                    if not b_strs:
                        continue
                    joined = {sa + sb for sa in a_strs for sb in b_strs
                              if not rel_only or _REL in sa or _REL in sb}
                    for c in kept:
                        level[c].update(joined)
        live = [c for c in coordinating if need[c] <= budget]
        for n1 in range(1, n - 1):
            left, right = strings[n1], strings[n - 1 - n1]
            for c in live:
                a_strs, b_strs = left.get(c), right.get(c)
                if a_strs and b_strs:
                    level[c].update(sa + _CONJ + sb for sa in a_strs for sb in b_strs
                                    if not rel_only or _REL in sa or _REL in sb)
        strings[n] = dict(level)

    if halved and permuting:
        return [{k for k in level.get(s, ()) if _REL in k} for level in strings]
    return [level.get(s, set()) for level in strings]


def enumerate_templates(grammar: Grammar, max_len: int) -> list[Template]:
    """Every class sequence of length 3..max_len that passes the heuristics
    and parses to root S, in lexicographic order.  The filter and the sort
    run on the keys of ``_build_keys``, and only the kept keys become
    tuples."""
    if max_len < 3:
        return []
    keys = sorted(k for half in _build_keys(grammar, max_len)
                  for level in half[3:] for k in level if _passes(k))
    return list(map(_template, keys))


def grammatical_sequences(grammar: Grammar, max_len: int) -> dict[int, set[Template]]:
    """All parse-grammatical class sequences up to ``max_len``, without the
    heuristic filter, decoded from ``_build_keys``."""
    halves = _build_keys(grammar, max_len)
    return {n: {_template(k) for half in halves for k in half[n]}
            for n in range(1, max_len + 1)}


def _build_keys(grammar: Grammar, max_len: int) -> list[list[set[str]]]:
    """The ``_language`` builds whose keys make the language up to
    ``max_len``.  For a grammar whose ``policy`` is set, a sequence with REL
    is judged with permutation and one without REL without it, so the
    language is two disjoint halves: the permuting build makes only the
    first, and the non-permuting one only the second.  Otherwise the
    permuting build is the language.  Both modes read one closure, the
    permuting one."""
    build = category_universe(grammar, True)
    halves = [_language(grammar, build, True, max_len)]
    if grammar.policy is not None:
        halves.append(_language(grammar, build, False, max_len))
    return halves


def _extend(op: int, t1: Template, t2: Template, i: int) -> Template:
    """The Long extension operators: op 0 concatenates t1 t2, op 1 joins
    t1 CONJ t2, and op 2 inserts CONJ t2 into t1 before position i."""
    if op == 0:
        return t1 + t2
    if op == 1:
        return t1 + ("CONJ",) + t2
    return t1[:i] + ("CONJ",) + t2 + t1[i:]


def is_grammatical(template, grammar: Grammar, parser: ChartParser) -> bool:
    return parser.parse(grammar.categorize(template)).grammatical


def sample_long_templates(
    templates,
    grammar: Grammar,
    per_length: int,
    min_len: int,
    max_len: int,
    seed: int,
    parser: ChartParser,
) -> list[Template]:
    """Long templates by extension of ``templates``: for each length in
    [min_len, max_len], one ``unique_draws`` call draws an extension
    operator, a pair of template lengths, t1, t2 and an insertion point
    (``_extend``) until the length has ``per_length`` distinct candidates
    that pass the heuristics and derive S under ``grammar``.  A candidate
    already kept is rejected before the heuristics or a parse, and a draw
    whose operator leaves no pair of lengths draws nothing more.  The first
    length that runs out of draws fails, named.

    Every source template must derive S under ``grammar``, as
    ``enumerate_templates`` output does by construction.  A ``t1 CONJ t2``
    candidate that passes the heuristics is then accepted without a parse:
    the chart cells over t1 and t2 hold S, and S, a ground primitive that is
    no case marker, is ``coordinable``, so the coordination rule puts S over
    the whole input.  For a grammar whose ``policy`` is set, a candidate
    with REL in one half only is parsed with permutation on, while the other
    half derived S with it off; permuting cells are supersets of
    non-permuting ones (``closure`` only adds rotations and ``join`` is
    monotone), so that half still holds S.  Every other candidate is parsed.  The random draws do not depend on
    how a verdict is reached, so the output is the one a parse of every
    candidate gives.

    As implemented, the operators differ sharply.  In the 96-grammar
    pipeline at ``--scale 0.1 --seed 11``, concatenation (``t1 t2``) is
    accepted for 0 of 18,553 candidates that pass the heuristics, all 18,095
    coordinations are decided by construction, and insertion (CONJ t2 inside
    t1) is accepted for 1,105 of 16,828.  The parser's balance test rejects
    9,394 of those concatenations and 3,758 of those insertions before it
    fills a chart (see ``alforge.parser``).  Each failure names the grammar."""
    where = f"{grammar.params} Long templates"
    if per_length < 1:
        raise ValueError(f"{where}: per_length must be >= 1")
    templates = [tuple(t) for t in templates]
    if not templates:
        raise ValueError(f"{where}: no source templates to extend")
    by_len: dict[int, list[Template]] = {}
    for t in dict.fromkeys(sorted(templates)):  # sorted and distinct
        by_len.setdefault(len(t), []).append(t)
    # the (len t1, len t2) pairs that add up to each total, in by_len order
    splits_of = {
        need: [(a, need - a) for a in by_len if need - a in by_len]
        for need in range(min_len - 1, max_len + 1)
    }
    pick = picker(random.Random(seed))

    def draw(target: int, taken: set[Template]):
        op = pick(range(3))
        # concatenation preserves total length; the conjunction ops add 1
        splits = splits_of[target if op == 0 else target - 1]
        if not splits:
            return None
        a, b = pick(splits)
        t1 = pick(by_len[a])
        t2 = pick(by_len[b])
        i = pick(range(1, len(t1))) if op == 2 else 0
        cand = _extend(op, t1, t2, i)
        if cand in taken or not heuristic_filter(cand) or (
                op != 1 and not is_grammatical(cand, grammar, parser)):
            return None
        return cand, cand

    drawn = []
    for target in range(min_len, max_len + 1):
        taken: set[Template] = set()
        drawn += unique_draws(lambda: draw(target, taken), per_length, taken,
                              f"{where}: insufficient templates for length {target}")
    return sorted(cand for cand, _ in drawn)


def save_templates(templates, path) -> None:
    with open(path, "w") as fh:
        for t in templates:
            fh.write(" ".join(t) + "\n")


def load_templates(path) -> list[Template]:
    """The templates of a ``save_templates`` file.  A class outside
    ``LEXICAL_CLASSES`` is a ValueError that names the file and the line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            t = tuple(line.split())
            if not t:
                continue
            unknown = set(t) - set(LEXICAL_CLASSES)
            if unknown:
                raise ValueError(f"{path}, line {lineno}: unknown lexical classes: {sorted(unknown)}")
            out.append(t)
    return out
