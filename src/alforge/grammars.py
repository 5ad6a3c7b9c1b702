"""Expansion of 7-bit word-order parameter vectors into concrete grammars.

Parameter order is S, VP, O, COMP, PP, ADJ, REL (e.g. "0101101" for the
English-like language).  The O bit selects which of the verb's two NP
arguments is consumed first; for verb-medial settings the two choices are
cyclic rotations of each other, which collapses the 128 vectors to 96
distinct languages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .categories import (
    BACKWARD,
    FORWARD,
    NP,
    NP_OBJ,
    NP_SUBJ,
    S,
    SCOMP,
    Category,
    Functor,
    Restrictions,
    Variable,
    format_category,
)

LEXICAL_CLASSES = (
    "NP",
    "SUBJ",
    "OBJ",
    "ADJ",
    "VT",
    "VI",
    "VCOMP",
    "COMP",
    "PREP",
    "REL",
    "CONJ",
)

BASE_ORDERS = ("SOV", "OSV", "SVO", "OVS", "VSO", "VOS")

_NO_COMP = Restrictions(no_composition=True)
_CONJ_RESTR = Restrictions(no_composition=True, no_permutation=True, no_crossing=True)


def check_params(params: str) -> str:
    if len(params) != 7 or set(params) - {"0", "1"}:
        raise ValueError(f"parameter vector must be 7 bits, got {params!r}")
    return params


def base_order_of(s_bit: int, vp_bit: int, o_bit: int) -> str:
    """Base word order induced by the S, VP and O parameters; O is vacuous
    for verb-medial settings."""
    if (s_bit, vp_bit) == (0, 0):
        return "SOV" if o_bit == 0 else "OSV"
    if (s_bit, vp_bit) == (1, 1):
        return "VSO" if o_bit == 0 else "VOS"
    return "SVO" if (s_bit, vp_bit) == (0, 1) else "OVS"


@dataclass(frozen=True)
class Grammar:
    """One artificial language: canonical parameter id, induced lexical
    category assignment, and permutation policy: the REL category an input
    must contain to permute, or None when every input permutes."""

    params: str
    base_order: str
    lexicon: tuple[tuple[str, Category], ...]
    policy: Category | None
    aliases: tuple[str, ...] = ()

    @cached_property  # built once: a frozen dataclass without slots keeps it
    def lexicon_map(self) -> dict[str, Category]:
        return dict(self.lexicon)

    def category(self, cls: str) -> Category:
        return self.lexicon_map[cls]

    def categorize(self, classes) -> tuple[Category, ...]:
        lex = self.lexicon_map
        return tuple(lex[c] for c in classes)


def _slash(bit: int) -> str:
    return FORWARD if bit else BACKWARD


def build_grammar(params: str) -> Grammar:
    """Resolve the Table-1 slash choices for a 7-bit vector."""
    check_params(params)
    s_bit, vp_bit, o_bit, comp_bit, pp_bit, adj_bit, rel_bit = (int(b) for b in params)
    base_order = base_order_of(s_bit, vp_bit, o_bit)

    subj_arg = (_slash(s_bit), NP_SUBJ, Restrictions())
    obj_arg = (_slash(vp_bit), NP_OBJ, Restrictions())
    verb_final = (s_bit, vp_bit) == (0, 0)
    verb_initial = (s_bit, vp_bit) == (1, 1)
    if verb_final:
        outer, inner = (obj_arg, subj_arg) if o_bit == 0 else (subj_arg, obj_arg)
    elif verb_initial:
        outer, inner = (subj_arg, obj_arg) if o_bit == 0 else (obj_arg, subj_arg)
    else:
        outer, inner = obj_arg, subj_arg  # O vacuous for verb-medial orders
    vt = Functor(Functor(S, *inner), *outer)

    vi = Functor(S, _slash(s_bit), NP_SUBJ)
    vcomp = Functor(Functor(S, _slash(s_bit), NP_SUBJ), _slash(vp_bit), SCOMP)
    comp = Functor(SCOMP, _slash(comp_bit), S)
    if pp_bit == 0:
        prep = Functor(Functor(NP, BACKWARD, NP), FORWARD, NP)
    else:
        prep = Functor(Functor(NP, FORWARD, NP), BACKWARD, NP)
    adj = Functor(NP, FORWARD if adj_bit == 0 else BACKWARD, NP, _NO_COMP)
    rel_body = Functor(S, _slash(vp_bit), NP_OBJ)
    if rel_bit == 1:
        rel = Functor(Functor(NP_SUBJ, BACKWARD, NP_SUBJ), FORWARD, rel_body)
    else:
        rel = Functor(Functor(NP_SUBJ, FORWARD, NP_SUBJ), BACKWARD, rel_body)

    var = Variable()
    conj = Functor(Functor(var, BACKWARD, var, _CONJ_RESTR), FORWARD, var, _CONJ_RESTR)

    lexicon = (
        ("NP", NP),
        ("SUBJ", Functor(NP_SUBJ, BACKWARD, NP, _NO_COMP)),
        ("OBJ", Functor(NP_OBJ, BACKWARD, NP, _NO_COMP)),
        ("ADJ", adj),
        ("VT", vt),
        ("VI", vi),
        ("VCOMP", vcomp),
        ("COMP", comp),
        ("PREP", prep),
        ("REL", rel),
        ("CONJ", conj),
    )
    policy = rel if base_order in ("SOV", "OSV", "VOS", "OVS") else None
    return Grammar(params, base_order, lexicon, policy)


@lru_cache(maxsize=1)
def enumerate_grammars() -> tuple[Grammar, ...]:
    """All distinct grammars (exactly 96), canonical id per equivalence
    group, lexicographically smallest vector first."""
    groups: dict[object, list[Grammar]] = {}
    for i in range(128):
        g = build_grammar(format(i, "07b"))
        # build_grammar already picks the canonical VT nesting for verb-medial
        # settings (where the two O choices are rotations generating the same
        # string language), so structural equality of the lexicon and policy
        # is the right key here.
        groups.setdefault((g.lexicon, g.policy), []).append(g)
    # groups fill in ascending vector order: the first member is canonical
    grammars = [replace(first, aliases=tuple(g.params for g in rest))
                for first, *rest in groups.values()]
    grammars.sort(key=lambda g: g.params)
    if len(grammars) != 96:
        raise RuntimeError(f"expected 96 distinct grammars, got {len(grammars)}")
    return tuple(grammars)


@lru_cache(maxsize=None)
def grammar_by_id(params: str) -> Grammar:
    """Grammar whose canonical id or alias matches ``params``."""
    check_params(params)
    for g in enumerate_grammars():
        if g.params == params or params in g.aliases:
            return g
    raise KeyError(params)


def grammar_to_text(g: Grammar) -> str:
    lines = [f"# params: {g.params}", f"# base_order: {g.base_order}"]
    if g.aliases:
        lines.append(f"# aliases: {' '.join(g.aliases)}")
    mode = "always" if g.policy is None else "rel-conditional"
    lines.append(f"# permutation: {mode}")
    for cls, cat in g.lexicon:
        lines.append(f"{cls} => {format_category(cat)}")
    return "\n".join(lines) + "\n"
