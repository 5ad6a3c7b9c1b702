"""CKY-style chart recognizer/parser over sequences of lexical categories.

Permutation is a unary closure inside each chart cell, limited to verb
functors (categories whose innermost result is S).  The parser's ``policy``
is the category an input must contain to permute (a grammar whose ``policy``
is set passes its REL entry), or None when every input permutes.
Coordination is a ternary rule over (left span, conjunction token, right
span); conjunction tokens never enter ordinary cells, which keeps variable
categories out of the chart.

The chart runs on small integer codes.  A ``RuleTable`` interns each category
to an int the first time it is seen and keeps its facts (the coordinable and
the conjunction codes as bitmasks, the balances as a list), so after
``_encode`` the parser reads codes only.  Three memos remain: the binary rule
results per category pair (``_rule_results``, one for the process), the
rotation closure per code (as a bitmask) and, per permutation mode, the
closed binary results per pair of cell masks (chart cells are bitmasks over
codes); template enumeration reads the last two too.  The table's memos
fill lazily, on first use, so keep one ``ChartParser`` per grammar when
parsing in bulk.

The chart has one meaning: the codes derivable over each span.  It fills
column by column, each column from the right, and visits only the cells
that an agenda can reach (the deductive agenda of Shieber, Schabes and
Pereira, 1995): a cell with a split into two non-empty spans, or with a
conjunction between two.  Two int bitmasks per position find them:
``ends[i]``, the k with ``chart[i][k]`` non-empty, and ``starts[j]``, the i
with ``chart[i][j]`` non-empty.  Over the 11,188 fills of the Long sampler
in the 96-grammar pipeline at ``--scale 0.1 --seed 11``, 1.32M of the 1.55M
cells of two or more tokens are empty.  A fill of every span in length
order (``reference_fill`` in ``tests/oracle.py``) visits them all, takes
2.65M splits of which 0.53M have a non-empty right half, and turns a
per-cell conjunction loop 4.95M times; the agenda visits 0.62M cells and
takes those 0.53M splits and 0.24M coordinations.

Derivation trees are read back top-down from S, at the splits whose halves
are both non-empty and whose ``join`` holds the wanted code, into per-call
dicts: every tree of the input, or ``MAX_DERIVATIONS`` when there are more.

Before it fills a chart, ``parse`` rejects inputs whose primitive counts
cannot add up to S (van Benthem's count invariant).  A category's
*balance* is the signed count of each primitive in it: +1 for each
occurrence as a result, -1 for each as an argument, so a primitive is +1 of
itself and ``a|b`` is balance(a) - balance(b); a category with a variable
has none.  Application and composition add the balances of their inputs,
and rotation keeps a category's balance, so every constituent of a
conjunction-free span has the sum of its tokens' balances.  Hence:

- an input without a conjunction derives S only if its total is balance(S);
- an input with one conjunction at p derives S only through one
  coordination ``X CONJ X -> X`` over some [l, r) around p.  The whole
  input then balances as S plus balance(X), so with T = (total of the
  other tokens) - balance(S), both conjuncts, a non-empty suffix of
  ``seq[:p]`` and a non-empty prefix of ``seq[p+1:]``, have balance T.
- an input with two conjunctions at p < q derives S only through two
  coordinations, one with each conjunction as its middle token.  Let L, M
  and R be the balances of the tokens before p, between p and q and after
  q, T = sum(L) + sum(M) + sum(R) - balance(S), and Suf and Pre the sets
  of sums of non-empty suffixes and prefixes.  A coordination over X adds
  -balance(X), so the conjunct balances x1 (at p) and x2 (at q) add up to
  T.  The left conjunct at p lies in L and the right conjunct at q in R, so
  x1 is in Suf(L) and x2 in Pre(R).  Two coordination spans are disjoint
  or strictly nested (equal spans cannot happen: a coordination's three
  children are shorter than it, and PERMUTE nodes are unary), which leaves
  three cases: (a) side by side, x1 in Pre(M) and x2 in Suf(M); (b) the
  coordination at q inside the right conjunct at p, so x2 is in Suf(M),
  and that conjunct, sum(M) plus a prefix of R less x2, has balance x1, so
  T - sum(M) is in Pre(R); (c) the coordination at p inside the left
  conjunct at q, so x1 is in Pre(M) and, likewise, T - sum(M) is in Suf(L).

Any other input (three or more conjunctions, or another token with a
variable) goes to the chart.  The test rejects only what the chart would,
so ``parse`` verdicts and trees are those of the chart alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

from .categories import (
    PRIMITIVE_NAMES,
    Category,
    Functor,
    Primitive,
    S,
    contains_variable,
    is_conjunction,
)
from .combinators import (
    BINARY_RULES,
    RuleId,
    coordinable,
    coordinate,
)


def rotations(c: Category) -> list[Category]:
    """The proper rotations of ``c``, in application order: the m-th moves
    the m outermost arguments innermost, each with its slash and
    restrictions.  This is the toolkit's only rotation code.

    Only verb functors (innermost result S) rotate.  The chain stops before
    the m-th rotation when the (m-1)-th has an "@"-restricted outermost
    argument, or when a rotation comes back to ``c`` or to an earlier one,
    so it has at most arity-1 entries."""
    args: list[Functor] = []  # the spine's nodes, outermost first
    core = c
    while isinstance(core, Functor):
        args.append(core)
        core = core.result
    if core != S:
        return []
    out: list[Category] = []
    for m in range(1, len(args)):
        if args[m - 1].restrictions.no_permutation:
            break
        cur = core
        for f in reversed(args[m:] + args[:m]):
            cur = Functor(cur, f.slash, f.argument, f.restrictions)
        if cur == c or cur in out:
            break
        out.append(cur)
    return out


# A balance packs one signed count per primitive into 16-bit fields of one
# int, so balances add as ints; no input the toolkit builds comes near 2**15.
_UNITS = {name: 1 << 16 * i for i, name in enumerate(PRIMITIVE_NAMES)}


def balance(c: Category) -> int | None:
    """The packed signed primitive counts of ``c`` (see the module
    docstring), or None when ``c`` contains a variable."""
    if contains_variable(c):
        return None
    if isinstance(c, Primitive):
        return _UNITS[c.name]
    return balance(c.result) - balance(c.argument)


_S_BALANCE = balance(S)


@cache
def _rule_results(x: Category, y: Category) -> tuple[tuple[RuleId, Category], ...]:
    """(rule, result) for every binary rule that applies to x, y, in
    ``BINARY_RULES`` order.  One unbounded memo for every ``RuleTable``: the
    result is a pure function of the two categories, and each table maps it
    to its own codes.  A 96-grammar pipeline plus the full census leaves
    1,472 entries in it."""
    return tuple((rule, cat) for rule, fn in BINARY_RULES if (cat := fn(x, y)) is not None)


def bits(mask: int):
    """Codes set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RuleTable:
    """Interned categories and lazily memoised rule results over their codes.

    ``code`` assigns each distinct category a small int on first sight,
    sets its bit in ``coordinating`` when it is ``coordinable`` and in
    ``conjunctions`` when it ``is_conjunction``, and records its ``balance``
    in ``balances``; ``find`` looks one up without assigning.  ``combine``
    maps the shared ``_rule_results`` memo to codes on every call.  Two memos
    are the table's own: ``closure`` keeps the bitmask of a code and its
    rotation chain, and ``join`` the closed binary results per pair of chart
    cells (enumeration asks it for single codes).  A table belongs to one
    thread; each ``pipeline`` pool worker builds its own.
    """

    def __init__(self) -> None:
        self.cats: list[Category] = []
        self.coordinating = 0
        self.conjunctions = 0
        self.balances: list[int | None] = []  # indexed by code
        self._codes: dict[Category, int] = {}
        self._closures: dict[int, int] = {}
        self._joins: tuple[dict, dict] = ({}, {})  # indexed by permutation mode

    def code(self, cat: Category) -> int:
        code = self._codes.get(cat)
        if code is None:
            code = self._codes[cat] = len(self.cats)
            self.cats.append(cat)
            self.balances.append(balance(cat))
            self.coordinating |= coordinable(cat) << code
            self.conjunctions |= is_conjunction(cat) << code
        return code

    def find(self, cat: Category) -> int | None:
        """The code of ``cat``, or None if this table has not interned it."""
        return self._codes.get(cat)

    def combine(self, a: int, b: int) -> tuple[tuple[RuleId, int], ...]:
        """(rule, result code) for every binary rule that applies to a, b."""
        return tuple((rule, self.code(cat))
                     for rule, cat in _rule_results(self.cats[a], self.cats[b]))

    def closure(self, a: int, permuting: bool) -> int:
        """Bitmask of a and, when permuting, every rotation reachable from it."""
        if not permuting:
            return 1 << a
        out = self._closures.get(a)
        if out is None:
            out = 1 << a
            for r in rotations(self.cats[a]):
                out |= 1 << self.code(r)
            self._closures[a] = out
        return out

    def joins(self, permuting: bool) -> dict[tuple[int, int], int]:
        """The ``join`` memo of one permutation mode, for lookups in a hot loop."""
        return self._joins[permuting]

    def join(self, left: int, right: int, permuting: bool) -> int:
        """Closed bitmask of every binary result of a code in ``left`` with
        a code in ``right``."""
        memo = self._joins[permuting]
        out = memo.get((left, right))
        if out is None:
            out = 0
            for a in bits(left):
                for b in bits(right):
                    for _rule, c in self.combine(a, b):
                        out |= self.closure(c, permuting)
            memo[(left, right)] = out
        return out


@dataclass(frozen=True)
class Derivation:
    """Derivation tree node; leaves have ``rule`` None."""

    category: Category
    rule: RuleId | None = None
    children: tuple["Derivation", ...] = ()


@dataclass
class ParseResult:
    grammatical: bool
    derivations: list[Derivation] = field(default_factory=list)


MAX_DERIVATIONS = 64  # trees kept per chart entry, and so per parse

_Key = tuple[int, int, int]  # (start, end, category code)


class ChartParser:
    """Reusable parser over one ``RuleTable``.  The table fills lazily and is
    kept across calls, so keep one instance per grammar when parsing in
    bulk.  Derivations are read back from the recognizer's filled chart."""

    def __init__(self, policy: Category | None):
        self.policy = policy
        self.table = RuleTable()

    def _permuting(self, codes: list[int]) -> bool:
        """Whether the input ``codes`` permute: always when ``policy`` is
        None, else only when they contain the ``policy`` category.  That
        category is looked up, not interned, so that a parse never assigns a
        code its input does not need."""
        return self.policy is None or self.table.find(self.policy) in codes

    def parse(
        self, seq: list[Category] | tuple[Category, ...], *, derivations: bool = False
    ) -> ParseResult:
        """Whether ``seq`` derives S and, with ``derivations``, up to
        ``MAX_DERIVATIONS`` of its derivation trees.  An input that fails
        ``_balanced`` is rejected without a chart."""
        codes = self._encode(seq)
        if not self._balanced(codes):
            return ParseResult(False)
        chart, conjs, permuting = self._fill(codes)
        s = self.table.code(S)
        result = ParseResult(bool(chart[0][-1] >> s & 1))
        if derivations and result.grammatical:
            result.derivations = self._extract(chart, codes, conjs, permuting, s)
        return result

    def _encode(self, seq: list[Category] | tuple[Category, ...]) -> list[int]:
        """The codes of the input's tokens."""
        if not seq:
            raise ValueError("cannot parse an empty sequence")
        known = self.table._codes
        try:
            return [known[c] for c in seq]
        except KeyError:  # intern the new categories, in input order
            return [self.table.code(c) for c in seq]

    def _balanced(self, codes: list[int]) -> bool:
        """False only when the count invariant of the module docstring
        proves that the input ``codes`` derive no S: one look-up per token and
        a ``sum``, and for an input with one or two conjunctions a few linear
        scans of prefix and suffix sums.  In the 96-grammar pipeline at
        ``--scale 0.1 --seed 11`` it settles 26,074 of the 37,530 parse
        calls."""
        bal = self.table.balances
        sums = [bal[a] for a in codes]
        if None not in sums:
            return sum(sums) == _S_BALANCE
        p, count = sums.index(None), sums.count(None)
        q = sums.index(None, p + 1) if count == 2 else p
        conjunctions = self.table.conjunctions
        if count > 2 or not (conjunctions >> codes[p] & 1 and conjunctions >> codes[q] & 1):
            return True
        left, mid, right = sums[:p][::-1], sums[p + 1:q], sums[q + 1:]
        t = sum(left) + sum(mid) + sum(right) - _S_BALANCE
        if p == q:
            return t in accumulate(left) and t in accumulate(right)
        suf_l, pre_r = set(accumulate(left)), set(accumulate(right))
        pre_m, suf_m = set(accumulate(mid)), set(accumulate(reversed(mid)))
        rest = t - sum(mid)  # when nested, the outer conjunct's tokens outside M
        first_outer, second_outer = rest in pre_r, rest in suf_l  # cases (b), (c)
        return any(t - x in pre_r and (x in pre_m and (t - x in suf_m or second_outer)
                                       or t - x in suf_m and first_outer)
                   for x in suf_l)

    def _fill(self, codes: list[int]):
        """Fill the chart over the input ``codes``: ``chart[i][j]`` is the
        mask of the codes derivable over codes[i:j].  Returns the chart, the
        positions of the input's conjunction tokens and the permutation mode.

        Columns fill in order of j, each from the right, so both halves of a
        split of (i, j) are filled before it.  A column visits only the cells
        on its agenda, which have a non-empty split: each non-empty (k, j),
        the token cell first, adds ``starts[k]``, and ``starts[k - 1]`` when
        a conjunction sits at k - 1.  A cell joins only its splits in
        ``ends[i] & starts[j]``.

        Coordination adds ``row[p] & chart[p + 1][j] & table.coordinating``,
        closed as a rule result is.  Every cell is closed under rotation
        chains (tokens enter as ``closure(a)``, ``join`` ORs closures, and a
        rotation's own chain stays inside its source's closure), so the meet
        of two cells is too; and coordinability is constant along a chain
        (only verb functors rotate, a rotation keeps a category ground, and
        case markers never rotate).  A ``join`` miss can intern new codes,
        so ``table.coordinating`` is read at each use."""
        table = self.table
        n = len(codes)
        permuting = self._permuting(codes)
        conjs: list[int] = []  # positions of conjunction tokens
        chart = [[0] * (n + 1) for _ in range(n + 1)]
        ends = [0] * (n + 1)  # ends[i]: bit k when chart[i][k] is non-empty
        starts = [0] * (n + 1)  # starts[j]: bit i when chart[i][j] is non-empty
        for i, a in enumerate(codes):
            if table.conjunctions >> a & 1:
                conjs.append(i)  # feeds the coordination rule only
            else:
                chart[i][i + 1] = table.closure(a, permuting)
                ends[i] = 1 << i + 1
                starts[i + 1] = 1 << i
        conj_mask = sum(1 << p for p in conjs)
        joined = table.joins(permuting)
        for j in range(2, n + 1):
            col = starts[j]  # the token cell's bit, unless it is a conjunction
            agenda = starts[j - 1] | (starts[j - 2] if conj_mask >> j - 2 & 1 else 0) if col else 0
            while agenda:
                i = agenda.bit_length() - 1  # the rightmost cell left
                agenda ^= 1 << i
                row = chart[i]
                mask = 0
                splits = ends[i] & col
                while splits:
                    k = splits.bit_length() - 1
                    splits ^= 1 << k
                    m = joined.get((row[k], chart[k][j]))
                    if m is None:
                        m = table.join(row[k], chart[k][j], permuting)
                    mask |= m
                coords = ends[i] & conj_mask & col >> 1
                while coords:
                    p = coords.bit_length() - 1
                    coords ^= 1 << p
                    mask |= row[p] & chart[p + 1][j] & table.coordinating
                if mask:
                    row[j] = mask
                    ends[i] |= 1 << j
                    col |= 1 << i
                    agenda |= starts[i] | (starts[i - 1] if conj_mask << 1 >> i & 1 else 0)
            starts[j] = col
        return chart, conjs, permuting

    def _extract(self, chart, codes, conjs, permuting: bool, root: int) -> list[Derivation]:
        """The derivations of code ``root`` over the whole input, read back
        top-down from ``_fill``'s chart.  A key (i, j, c) is built directly as
        the input token, as a rule result of codes a, b at a split k whose
        ``join`` holds c, or by coordination at p: in that order, by k, a, b,
        rule, then p.  When the input permutes, the direct trees of each other
        code of the cell that rotates to c follow, in order of first appearance."""
        table = self.table
        cats, codes_of, closures = table.cats, table._codes, table._closures
        joined = table.joins(permuting)
        direct, done, leaves = {}, {}, {}  # key: (first way, direct trees); key: trees; code: leaf
        for i, a in enumerate(codes):
            done[i, i + 1, a] = leaves.get(a) or leaves.setdefault(a, [Derivation(cats[a])])

        def built(key: _Key) -> tuple:
            i, j, c = key
            if j == i + 1:
                return ((), done[key]) if codes[i] == c else (None, [])
            row, ways, out = chart[i], [], []  # (place, rule, left key, middle trees, right key)
            for k in range(i + 1, j):
                left = row[k]
                if left and chart[k][j] and joined[left, chart[k][j]] >> c & 1:
                    for a in bits(left):
                        for b in bits(chart[k][j]):
                            for n, (rule, r) in enumerate(_rule_results(cats[a], cats[b])):
                                if codes_of[r] == c:
                                    ways.append(((k, a, b, n), rule, (i, k, a), (), (k, j, b)))
            for p in conjs if table.coordinating >> c & 1 else ():
                if i < p < j - 1 and (row[p] & chart[p + 1][j]) >> c & 1:
                    mid = done[p, p + 1, codes[p]]  # the conjunction's leaf
                    ways.append(((j, p), RuleId.COORD, (i, p, c), mid, (p + 1, j, c)))
            for _, rule, lkey, mid, rkey in ways:
                if len(out) >= MAX_DERIVATIONS:
                    break
                rights = done.get(rkey) or trees(rkey)
                for x in done.get(lkey) or trees(lkey):
                    for y in rights if len(out) < MAX_DERIVATIONS else ():
                        out.append(Derivation(cats[c], rule, (x, *mid, y)))
            got = direct[key] = ways[0][0] if ways else None, out[:MAX_DERIVATIONS]
            return got

        def trees(key: _Key) -> list[Derivation]:
            out = (direct.get(key) or built(key))[1]
            if permuting:
                i, j, c = key
                sources = []
                for b in bits(chart[i][j] & ~(1 << c)):
                    if (closures.get(b) or table.closure(b, True)) >> c & 1:
                        first, got = direct.get((i, j, b)) or built((i, j, b))
                        if first is not None:
                            sources.append((first, b, got))
                rotated = []
                for _, b, got in sorted(sources):
                    chain = rotations(cats[b])
                    for t in got:
                        for r in chain[:chain.index(cats[c]) + 1]:
                            t = Derivation(r, RuleId.PERMUTE, (t,))
                        rotated.append(t)
                out = (out + rotated)[:MAX_DERIVATIONS] if rotated else out
            done[key] = out
            return out

        return trees((0, len(codes), root))


def _replay(node: Derivation) -> Category | None:
    """Recompute the node's category from its children; None on mismatch."""
    if node.rule is None:
        if node.children:
            raise ValueError("leaf node with children")
        return node.category
    kids = [_replay(c) for c in node.children]
    if any(k is None for k in kids):
        return None
    if node.rule is RuleId.PERMUTE:
        if len(kids) != 1:
            raise ValueError("permutation node must have one child")
        # one step of the rotation chain the parser itself may take
        got = next(iter(rotations(kids[0])), None)
    elif node.rule is RuleId.COORD:
        if len(kids) != 3:
            raise ValueError("coordination node must have three children")
        got = coordinate(kids[0], kids[1], kids[2])
    else:
        if len(kids) != 2:
            raise ValueError("binary rule node must have two children")
        fn = dict(BINARY_RULES).get(node.rule)
        if fn is None:
            raise ValueError(f"unknown rule: {node.rule}")
        got = fn(kids[0], kids[1])
    return got if got == node.category else None


def derivation_check(tree: Derivation) -> bool:
    """True iff replaying every rule reproduces each node's category and the
    root is S.  Only the rules are replayed: a leaf may be any category."""
    if not isinstance(tree, Derivation):
        raise ValueError("malformed derivation tree")
    return _replay(tree) == tree.category and tree.category == S
