"""Independent brute-force derivation search used as a parser oracle.

Deliberately naive: rules are re-implemented by direct pattern matching on
category structure (no shared code with the chart parser beyond the category
dataclasses), and the search recursively tries every split point, every rule,
and every rotation, without a chart or memo table shared across sequences.
"""

from __future__ import annotations

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
    innermost_result,
)


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


def _binary_results(a: Category, b: Category) -> set[Category]:
    out: set[Category] = set()
    if not (_ground(a) and _ground(b)):
        return out
    # application
    if isinstance(a, Functor) and a.slash == FORWARD and a.argument == b:
        out.add(a.result)
    if isinstance(b, Functor) and b.slash == BACKWARD and b.argument == a:
        out.add(b.result)
    # composition (plain and crossed); "," blocks all, "." blocks crossed
    if isinstance(a, Functor) and isinstance(b, Functor):
        a_ok = not a.restrictions.no_composition
        b_ok = not b.restrictions.no_composition
        if a_ok and b_ok and a.argument == b.result:
            if a.slash == FORWARD and b.slash == FORWARD:
                out.add(Functor(a.result, FORWARD, b.argument, b.restrictions))
            if a.slash == FORWARD and b.slash == BACKWARD:
                if not (a.restrictions.no_crossing or b.restrictions.no_crossing):
                    out.add(Functor(a.result, BACKWARD, b.argument, b.restrictions))
        if a_ok and b_ok and b.argument == a.result:
            if a.slash == BACKWARD and b.slash == BACKWARD:
                out.add(Functor(b.result, BACKWARD, a.argument, a.restrictions))
            if a.slash == FORWARD and b.slash == BACKWARD:
                if not (a.restrictions.no_crossing or b.restrictions.no_crossing):
                    out.add(Functor(b.result, FORWARD, a.argument, a.restrictions))
    return out


def _rotate_once(c: Category) -> Category | None:
    if not isinstance(c, Functor) or innermost_result(c) != S:
        return None
    if c.restrictions.no_permutation:
        return None
    # peel the argument spine, move the outermost argument innermost
    args = []
    cur: Category = c
    while isinstance(cur, Functor):
        args.append((cur.slash, cur.argument, cur.restrictions))
        cur = cur.result
    if len(args) < 2:
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


def oracle_grammatical(grammar, classes) -> bool:
    """Parser-independent grammaticality verdict for a class sequence."""
    seq = grammar.categorize(classes)
    if grammar.policy.require_rel:
        permuting = grammar.policy.rel_category in seq
    else:
        permuting = grammar.policy.allow_permutation
    return S in oracle_derivable(seq, permuting)


def leaves(tree) -> list:
    """The categories at the leaves of a derivation tree, left to right."""
    if not tree.children:
        return [tree.category]
    return [leaf for child in tree.children for leaf in leaves(child)]
