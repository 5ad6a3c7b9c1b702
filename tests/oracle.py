"""Independent brute-force derivation search used as a parser oracle.

Deliberately naive: rules are re-implemented by direct pattern matching on
category structure (no shared code with the chart parser beyond the category
dataclasses and the ``RuleId`` labels; ``_rotate_once`` peels the argument
spine and finds the innermost result itself), and the search recursively
tries every split point, every rule, and every rotation, without a chart or
memo table shared across sequences.

``oracle_derivations`` enumerates, by the same search, every derivation tree
rather than every category.

``chart_derivable``, ``derivation_rules`` and ``derivation_leaves`` are not
oracles: they read the parser's own chart and trees for tests that check
those directly.

``reference_fill`` keeps the chart parser's fill as it was before the
agenda: every span in length order, every split and every conjunction of
the input, for the cell-by-cell test of the agenda's chart.
``reference_extract`` keeps its derivation extraction as it was before it
walked only the wanted codes of each span, for the tree-by-tree test of the
new one.

``reference_language`` is the other reference kept here: the bottom-up
template enumerator as it was before outside-length pruning, which builds
every (length, category) entry.  It runs on the package's rule table, whose
rules ``tests/test_combinators.py`` checks against this module's, and closes
each level under this module's ``_rotation_closure``.

``reference_heuristic_filter`` and ``reference_ngram_counts`` keep the
plain bodies of ``templates.heuristic_filter`` and ``evaluation.ngram_train``
(one test per rule; one increment per context suffix of every position) for
the differential tests of the faster ones.

``reference_long_templates`` and ``reference_minimal_pairs`` keep the
samplers' own draw loops as they were before both moved onto
``templates.unique_draws``, with their old budgets (2,000 draws per Long
template, 100 per pair), so a test can check that the shared loop makes the
same random draws in the same order.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cache, lru_cache
from itertools import islice, product

from alforge.categories import (
    BACKWARD,
    FORWARD,
    NP,
    NP_OBJ,
    NP_SUBJ,
    S,
    Category,
    Functor,
    Variable,
)
from alforge.combinators import RuleId
from alforge.corpus import Sentence, _case_twin, _verb_twin
from alforge.evaluation import BOS, EOS
from alforge.parser import MAX_DERIVATIONS, Derivation, _Key, bits, rotations
from alforge.templates import _extend, category_universe, heuristic_filter, is_grammatical


def _ground(c: Category) -> bool:
    if isinstance(c, Variable):
        return False
    if isinstance(c, Functor):
        return _ground(c.result) and _ground(c.argument)
    return True


def _conjunction_shaped(c: Category) -> bool:
    return (
        isinstance(c, Functor)
        and c.slash == FORWARD
        and isinstance(c.argument, Variable)
        and isinstance(c.result, Functor)
        and c.result.slash == BACKWARD
        and isinstance(c.result.argument, Variable)
        and isinstance(c.result.result, Variable)
    )


def _marker_shaped(c: Category) -> bool:
    return (
        isinstance(c, Functor)
        and c.argument == NP
        and c.result in (NP_SUBJ, NP_OBJ)
    )


def _binary_steps(a: Category, b: Category) -> set[tuple[RuleId, Category]]:
    """(rule, result) for every binary rule that applies to a, b."""
    out: set[tuple[RuleId, Category]] = set()
    if not (_ground(a) and _ground(b)):
        return out
    # application
    if isinstance(a, Functor) and a.slash == FORWARD and a.argument == b:
        out.add((RuleId.FWD_APP, a.result))
    if isinstance(b, Functor) and b.slash == BACKWARD and b.argument == a:
        out.add((RuleId.BWD_APP, b.result))
    # composition (plain and crossed); "," blocks all, "." blocks crossed
    if isinstance(a, Functor) and isinstance(b, Functor):
        a_ok = not a.restrictions.no_composition
        b_ok = not b.restrictions.no_composition
        if a_ok and b_ok and a.argument == b.result:
            if a.slash == FORWARD and b.slash == FORWARD:
                out.add((RuleId.FWD_COMP, Functor(a.result, FORWARD, b.argument, b.restrictions)))
            if a.slash == FORWARD and b.slash == BACKWARD:
                if not (a.restrictions.no_crossing or b.restrictions.no_crossing):
                    out.add((RuleId.FWD_XCOMP,
                             Functor(a.result, BACKWARD, b.argument, b.restrictions)))
        if a_ok and b_ok and b.argument == a.result:
            if a.slash == BACKWARD and b.slash == BACKWARD:
                out.add((RuleId.BWD_COMP, Functor(b.result, BACKWARD, a.argument, a.restrictions)))
            if a.slash == FORWARD and b.slash == BACKWARD:
                if not (a.restrictions.no_crossing or b.restrictions.no_crossing):
                    out.add((RuleId.BWD_XCOMP,
                             Functor(b.result, FORWARD, a.argument, a.restrictions)))
    return out


def _binary_results(a: Category, b: Category) -> set[Category]:
    return {c for _rule, c in _binary_steps(a, b)}


def _rotate_once(c: Category) -> Category | None:
    if not isinstance(c, Functor) or c.restrictions.no_permutation:
        return None
    # peel the argument spine, move the outermost argument innermost
    args = []
    cur: Category = c
    while isinstance(cur, Functor):
        args.append((cur.slash, cur.argument, cur.restrictions))
        cur = cur.result
    if cur != S or len(args) < 2:
        return None
    first = args[0]
    rebuilt = cur
    for slash, arg, restr in reversed(args[1:] + [first]):
        rebuilt = Functor(rebuilt, slash, arg, restr)
    return rebuilt if rebuilt != c else None


def _rotation_closure(cats: set[Category], permuting: bool) -> set[Category]:
    if not permuting:
        return cats
    out = set(cats)
    frontier = list(cats)
    while frontier:
        nxt = _rotate_once(frontier.pop())
        if nxt is not None and nxt not in out:
            out.add(nxt)
            frontier.append(nxt)
    return out


def oracle_derivable(seq, permuting: bool) -> set[Category]:
    """Every category derivable over the full sequence."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty sequence")

    def search(sub: tuple[Category, ...]) -> set[Category]:
        if len(sub) == 1:
            tok = sub[0]
            if _conjunction_shaped(tok):
                return set()
            return _rotation_closure({tok}, permuting)
        results: set[Category] = set()
        for k in range(1, len(sub)):
            for a in search(sub[:k]):
                for b in search(sub[k:]):
                    results |= _binary_results(a, b)
        # coordination around each conjunction token
        for p in range(1, len(sub) - 1):
            if not _conjunction_shaped(sub[p]):
                continue
            left = search(sub[:p])
            right = search(sub[p + 1:])
            for c in left & right:
                if _ground(c) and not _marker_shaped(c):
                    results.add(c)
        return _rotation_closure(results, permuting)

    return search(seq)


def oracle_derivations(seq, permuting: bool) -> list[tuple]:
    """Every derivation of S over the sequence, as nested ``(category, rule,
    children)`` tuples with rule None at a leaf: every tree whose leaves are
    the input and each of whose nodes replays one rule.  A PERMUTE chain
    starts at a category built by another rule (or at a token) and never
    revisits a category."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty sequence")

    @lru_cache(maxsize=None)  # one span's trees, within this sequence only
    def direct(lo: int, hi: int) -> dict[Category, list]:
        out: dict[Category, list] = {}
        if hi - lo == 1:
            if not _conjunction_shaped(seq[lo]):
                out[seq[lo]] = [(seq[lo], None, ())]
            return out
        for k in range(lo + 1, hi):
            for a, left in trees(lo, k).items():
                for b, right in trees(k, hi).items():
                    for rule, c in _binary_steps(a, b):
                        out.setdefault(c, []).extend(
                            (c, rule, (x, y)) for x in left for y in right)
        for p in range(lo + 1, hi - 1):
            if not _conjunction_shaped(seq[p]):
                continue
            conj = (seq[p], None, ())
            left, right = trees(lo, p), trees(p + 1, hi)
            for c in left.keys() & right.keys():
                if _ground(c) and not _marker_shaped(c):
                    out.setdefault(c, []).extend(
                        (c, RuleId.COORD, (x, conj, y)) for x in left[c] for y in right[c])
        return out

    @lru_cache(maxsize=None)
    def trees(lo: int, hi: int) -> dict[Category, list]:
        out = {c: list(ts) for c, ts in direct(lo, hi).items()}
        for c, ts in direct(lo, hi).items() if permuting else ():
            seen = {c}
            cur = _rotate_once(c)
            while cur is not None and cur not in seen:
                ts = [(cur, RuleId.PERMUTE, (t,)) for t in ts]
                out.setdefault(cur, []).extend(ts)
                seen.add(cur)
                cur = _rotate_once(cur)
        return out

    return trees(0, len(seq)).get(S, [])


def oracle_grammatical(grammar, classes) -> bool:
    """Parser-independent grammaticality verdict for a class sequence."""
    seq = grammar.categorize(classes)
    if grammar.policy is not None:
        permuting = grammar.policy in seq
    else:
        permuting = True
    return S in oracle_derivable(seq, permuting)


def chart_derivable(parser, seq) -> set[Category]:
    """The categories of the whole-input cell of ``parser``'s chart over
    ``seq``, filled without the balance test that ``parse`` runs first."""
    cell = parser._fill(parser._encode(seq))[0][0][-1]
    return {c for code, c in enumerate(parser.table.cats) if cell >> code & 1}


def reference_fill(parser, codes):
    """``ChartParser._fill`` as it was before the agenda: every span in
    length order, every split of it, and every conjunction of the input.
    Returns the same (chart, conjunction positions, permutation mode)."""
    table = parser.table
    n = len(codes)
    permuting = parser._permuting(codes)
    conjs: list[int] = []
    chart = [[0] * (n + 1) for _ in range(n + 1)]
    for i, a in enumerate(codes):
        if table.conjunctions >> a & 1:
            conjs.append(i)
        else:
            chart[i][i + 1] = table.closure(a, permuting)
    # ends[i]: ascending ends k of the non-empty spans codes[i:k] filled so far
    ends = [[i + 1] if chart[i][i + 1] else [] for i in range(n)]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            row = chart[i]
            mask = 0
            for k in ends[i]:
                if chart[k][j]:
                    mask |= table.join(row[k], chart[k][j], permuting)
            for p in conjs:
                if i < p < j - 1:
                    mask |= row[p] & chart[p + 1][j] & table.coordinating
            row[j] = mask
            if mask:
                ends[i].append(j)
    return chart, conjs, permuting


def reference_extract(parser, chart, codes, conjs, permuting: bool, root: int) -> list[Derivation]:
    """``ChartParser._extract`` as it was before it read only the splits
    whose halves are both non-empty: every split and every conjunction of
    each span, three ``functools.cache`` memos built per call, and a walk
    over every code of the span for each key.  Returns the same trees in
    the same order."""
    table = parser.table
    cats = table.cats

    @cache
    def ways(i: int, j: int) -> dict[int, list]:
        """code -> [(rule, child keys)] for each code built directly,
        found in one scan of the span."""
        cell: dict[int, list] = {codes[i]: [(None, ())]} if j == i + 1 else {}
        for k in range(i + 1, j):
            for a in bits(chart[i][k]):
                for b in bits(chart[k][j]):
                    for rule, c in table.combine(a, b):
                        cell.setdefault(c, []).append((rule, ((i, k, a), (k, j, b))))
        for p in conjs:
            if i < p < j - 1:
                for a in bits(chart[i][p] & chart[p + 1][j] & table.coordinating):
                    kids = ((i, p, a), (p, p + 1, codes[p]), (p + 1, j, a))
                    cell.setdefault(a, []).append((RuleId.COORD, kids))
        return cell

    @cache
    def built(key: _Key) -> list[Derivation]:
        i, j, a = key
        nodes = (Derivation(cats[a], rule, kids)
                 for rule, keys in ways(i, j).get(a, ())
                 for kids in product(*map(trees, keys)))
        return list(islice(nodes, MAX_DERIVATIONS))

    @cache
    def trees(key: _Key) -> list[Derivation]:
        i, j, c = key
        out = list(built(key))
        for b in ways(i, j) if permuting else ():
            if b != c and table.closure(b, True) >> c & 1:
                chain = rotations(cats[b])
                for t in built((i, j, b)):
                    for r in chain[:chain.index(cats[c]) + 1]:
                        t = Derivation(r, RuleId.PERMUTE, (t,))
                    out.append(t)
        return out[:MAX_DERIVATIONS]

    return trees((0, len(codes), root))


def derivation_rules(tree) -> set[RuleId]:
    """Every rule that a derivation tree applies."""
    rules = {tree.rule} - {None}
    for child in tree.children:
        rules |= derivation_rules(child)
    return rules


def derivation_leaves(tree) -> list[Category]:
    """The leaf categories of a derivation tree, left to right."""
    if not tree.children:
        return [tree.category]
    return [leaf for child in tree.children for leaf in derivation_leaves(child)]


def as_tuple(tree) -> tuple:
    """A derivation tree in the nested tuple form of ``oracle_derivations``."""
    return (tree.category, tree.rule, tuple(as_tuple(child) for child in tree.children))


def reference_language(grammar, permutation_active: bool, max_len: int) -> list[set]:
    """out[n] = the class tuples of length n that derive S, for n <= max_len,
    with no pruning: strings[n] maps every category code to every class
    tuple of length n deriving it, over every pair of codes."""
    _cats, table, _pairs = category_universe(grammar, permutation_active)

    strings: list[dict[int, set]] = [dict() for _ in range(max_len + 1)]

    def close_level(level: dict[int, set]) -> None:
        if not permutation_active:
            return
        for a in list(level):
            for r in _rotation_closure({table.cats[a]}, True) - {table.cats[a]}:
                level.setdefault(table.code(r), set()).update(level[a])

    lex_level: dict[int, set] = defaultdict(set)
    for cls, cat in grammar.lexicon:
        if cls == "CONJ":
            continue
        lex_level[table.code(cat)].add((cls,))
    strings[1] = dict(lex_level)
    close_level(strings[1])

    for n in range(2, max_len + 1):
        level: dict[int, set] = defaultdict(set)
        for n1 in range(1, n):
            left, right = strings[n1], strings[n - n1]
            for a, a_strs in left.items():
                for b, b_strs in right.items():
                    results = table.combine(a, b)
                    if not results:
                        continue
                    joined = {sa + sb for sa in a_strs for sb in b_strs}
                    for _rule, c in results:
                        level[c].update(joined)
        for n1 in range(1, n - 1):
            left, right = strings[n1], strings[n - 1 - n1]
            for c, a_strs in left.items():
                b_strs = right.get(c)
                if not b_strs or not table.coordinating >> c & 1:
                    continue
                level[c].update(sa + ("CONJ",) + sb for sa in a_strs for sb in b_strs)
        level = dict(level)
        close_level(level)
        strings[n] = level

    s = table.code(S)
    return [level.get(s, set()) for level in strings]


def reference_grammatical_sequences(grammar, max_len: int) -> dict[int, set]:
    """``templates.grammatical_sequences`` over ``reference_language``: for a
    grammar whose ``policy`` is set, a sequence with REL is judged with
    permutation and one without REL without it."""
    lang = reference_language(grammar, True, max_len)
    if grammar.policy is None:
        return {n: lang[n] for n in range(1, max_len + 1)}
    plain = reference_language(grammar, False, max_len)
    return {
        n: {t for t in lang[n] if "REL" in t} | {t for t in plain[n] if "REL" not in t}
        for n in range(1, max_len + 1)
    }


def reference_heuristic_filter(classes) -> bool:
    """The eight filtering heuristics, tested one at a time."""
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
    if t[0] in ("SUBJ", "OBJ"):
        return False
    if sum(t.count(m) for m in ("SUBJ", "OBJ")) > t.count("NP"):
        return False
    if "COMP" in t and "VCOMP" not in t:
        return False
    return True


def reference_ngram_counts(train, order: int) -> tuple[dict, dict]:
    """(counts, context_totals) of an order-``order`` n-gram model over the
    token sequences ``train``: every position adds 1 to its word under each
    suffix of its context, the empty one included."""
    counts: dict = defaultdict(lambda: defaultdict(int))
    totals: dict = defaultdict(int)
    for tokens in train:
        padded = (BOS,) * (order - 1) + tuple(tokens) + (EOS,)
        words = padded[order - 1:]
        for i, w in enumerate(words):
            full = padded[i: i + order - 1] if order > 1 else ()
            for back in range(len(full) + 1):
                ctx = full[back:]
                counts[ctx][w] += 1
                totals[ctx] += 1
    return {ctx: dict(row) for ctx, row in counts.items()}, dict(totals)


def reference_long_templates(templates, grammar, per_length, min_len, max_len, seed, parser):
    """``templates.sample_long_templates`` with its own loop: per length, up
    to 2,000 draws per wanted template, each drawing the operator, then (if
    the operator leaves a pair of lengths) the pair, t1, t2 and the
    insertion point."""
    by_len: dict[int, list] = {}
    for t in dict.fromkeys(sorted(tuple(t) for t in templates)):
        by_len.setdefault(len(t), []).append(t)
    splits_of = {
        need: [(a, need - a) for a in by_len if need - a in by_len]
        for need in range(min_len - 1, max_len + 1)
    }
    rng = random.Random(seed)
    buckets: dict[int, set] = {n: set() for n in range(min_len, max_len + 1)}
    for target in sorted(buckets):
        bucket = buckets[target]
        for _ in range(2000 * per_length):
            if len(bucket) >= per_length:
                break
            op = rng.randrange(3)
            splits = splits_of[target if op == 0 else target - 1]
            if not splits:
                continue
            a, b = splits[rng.randrange(len(splits))]
            t1 = rng.choice(by_len[a])
            t2 = rng.choice(by_len[b])
            i = rng.randrange(1, len(t1)) if op == 2 else 0
            cand = _extend(op, t1, t2, i)
            if cand in bucket:
                continue
            if heuristic_filter(cand) and (op == 1 or is_grammatical(cand, grammar, parser)):
                bucket.add(cand)
    short = [n for n, b in buckets.items() if len(b) < per_length]
    if short:
        raise RuntimeError(f"fewer than {per_length} found for lengths {short}")
    return sorted(t for b in buckets.values() for t in b)


def reference_minimal_pairs(grammar, kind, source, lexicon, n, seed, parser):
    """``corpus.gen_minimal_pairs`` with its own loop: up to 100 draws per
    pair, each drawing a source sentence, then the twin's draws."""
    twin_of = _case_twin if kind == "CaseType" else _verb_twin
    rng = random.Random(seed)
    out: list = []
    seen: set = set()
    for _ in range(n):
        for _retry in range(100):
            src = rng.choice(source)
            twin = twin_of(src, lexicon, rng)
            if twin is None:
                continue
            bad_tokens, bad_classes = twin
            if bad_tokens == tuple(src.tokens):
                continue
            if (tuple(src.tokens), bad_tokens) in seen:
                continue
            if parser.parse(grammar.categorize(bad_classes)).grammatical:
                continue
            good = Sentence(tuple(src.tokens), tuple(src.classes), grammar.params, "PairGrammatical")
            bad = Sentence(bad_tokens, bad_classes, grammar.params, "PairUngrammatical")
            seen.add((good.tokens, bad.tokens))
            out.append((good, bad))
            break
        else:
            raise RuntimeError("could not build a pair after 100 retries")
    return out
