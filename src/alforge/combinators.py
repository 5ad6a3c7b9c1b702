"""Binary and ternary rule schemata over categories.

All rules are pure and total; ``None`` is the only failure mode.  Application
and composition require ground inputs, so variable categories are confined to
the coordination rule, where the conjunction's variable stands for the
conjunct category and the result is that category.
"""

from __future__ import annotations

from enum import Enum

from .categories import (
    BACKWARD,
    FORWARD,
    NP,
    NP_OBJ,
    NP_SUBJ,
    Category,
    Functor,
    contains_variable,
    is_conjunction,
)


def is_case_marker(c: Category) -> bool:
    """Functor turning a bare NP into a case-marked NP (the "ga"/"o"
    particle categories)."""
    return (
        isinstance(c, Functor)
        and c.argument == NP
        and c.result in (NP_SUBJ, NP_OBJ)
    )


class RuleId(Enum):
    FWD_APP = "FwdApp"
    BWD_APP = "BwdApp"
    FWD_COMP = "FwdComp"
    BWD_COMP = "BwdComp"
    FWD_XCOMP = "FwdXComp"
    BWD_XCOMP = "BwdXComp"
    COORD = "Coord"
    PERMUTE = "Permute"


def _apply(f: Category, a: Category, slash: str) -> Category | None:
    """The functor f, looking ``slash``-wards for a, yields its result."""
    if contains_variable(f) or contains_variable(a):
        return None
    if isinstance(f, Functor) and f.slash == slash and f.argument == a:
        return f.result
    return None


def apply_forward(f: Category, a: Category) -> Category | None:
    """a/b  b  =>  a"""
    return _apply(f, a, FORWARD)


def apply_backward(a: Category, f: Category) -> Category | None:
    """b  a\\b  =>  a"""
    return _apply(f, a, BACKWARD)


def _compose(f: Category, g: Category, f_slash: str, g_slash: str) -> Category | None:
    """f = a|b (slash ``f_slash``) and g = b|c (slash ``g_slash``) give a|c,
    where the c-position keeps g's slash and slot restrictions.

    The "," flag on either functor's argument slot blocks composition; the
    "." flag additionally blocks the crossed variants (``f_slash != g_slash``).
    """
    if contains_variable(f) or contains_variable(g):
        return None
    if not (isinstance(f, Functor) and f.slash == f_slash):
        return None
    if not (isinstance(g, Functor) and g.slash == g_slash):
        return None
    rf, rg = f.restrictions, g.restrictions
    if rf.no_composition or rg.no_composition:
        return None
    if f_slash != g_slash and (rf.no_crossing or rg.no_crossing):
        return None
    if f.argument != g.result:
        return None
    return Functor(f.result, g_slash, g.argument, g.restrictions)


def compose_forward(f: Category, g: Category) -> Category | None:
    """a/b  b/c  =>  a/c"""
    return _compose(f, g, FORWARD, FORWARD)


def compose_backward(g: Category, f: Category) -> Category | None:
    """b\\c  a\\b  =>  a\\c"""
    return _compose(f, g, BACKWARD, BACKWARD)


def compose_forward_crossing(f: Category, g: Category) -> Category | None:
    """a/b  b\\c  =>  a\\c  (crossed; needed when a forward functor must
    consume a backward-looking clause, e.g. gap passing through SCOMP)"""
    return _compose(f, g, FORWARD, BACKWARD)


def compose_backward_crossing(g: Category, f: Category) -> Category | None:
    """b/c  a\\b  =>  a/c  (crossed)"""
    return _compose(f, g, BACKWARD, FORWARD)


def coordinable(c: Category) -> bool:
    """Whether two c-constituents coordinate around a conjunction: c is
    ground, and not a case particle (those attach to NPs only)."""
    return not contains_variable(c) and not is_case_marker(c)


def coordinate(left: Category, conj: Category, right: Category) -> Category | None:
    """Two like-category constituents around a conjunction combine into one
    constituent of that category, when it is ``coordinable``."""
    if is_conjunction(conj) and left == right and coordinable(left):
        return left
    return None


# Each schema needs the left functor's argument to be the right category or
# its result, or the right functor's argument to be the left category or its
# result.  ``templates.category_universe`` finds partners by this: over the 96
# permuting universes it asks ``_rule_results`` about 19,104 of 121,056 pairs.
BINARY_RULES: tuple[tuple[RuleId, object], ...] = (
    (RuleId.FWD_APP, apply_forward),
    (RuleId.BWD_APP, apply_backward),
    (RuleId.FWD_COMP, compose_forward),
    (RuleId.BWD_COMP, compose_backward),
    (RuleId.FWD_XCOMP, compose_forward_crossing),
    (RuleId.BWD_XCOMP, compose_backward_crossing),
)
