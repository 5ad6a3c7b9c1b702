"""Category algebra: primitives, directional functors, variables, restrictions.

Categories are immutable values.  The text syntax round-trips through
``parse_category`` / ``str``: ``(S\\NP_SUBJ)/NP_OBJ``, with restriction
annotations written immediately after the slash, e.g. ``NP/,NP`` or the
conjunction ``(var\\.,@var)/.,@var``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

PRIMITIVE_NAMES = ("S", "NP", "NP_SUBJ", "NP_OBJ", "SCOMP")

FORWARD = "/"
BACKWARD = "\\"


@dataclass(frozen=True)
class Restrictions:
    """Rule-restriction flags carried by a functor's argument position."""

    no_composition: bool = False   # ","
    no_permutation: bool = False   # "@"
    no_crossing: bool = False      # "."

    def annotation(self) -> str:
        out = ""
        if self.no_crossing:
            out += "."
        if self.no_composition:
            out += ","
        if self.no_permutation:
            out += "@"
        return out

    @classmethod
    def from_annotation(cls, text: str) -> "Restrictions":
        bad = set(text) - set(".,@")
        if bad:
            raise ValueError(f"unknown restriction annotation: {''.join(sorted(bad))}")
        return cls(
            no_composition="," in text,
            no_permutation="@" in text,
            no_crossing="." in text,
        )


NO_RESTRICTIONS = Restrictions()


class Category:
    """Base class for category values.

    Each instance computes its structural hash and whether it contains a
    variable once, at construction (``_hash``, ``_var``), so hashing and
    ``contains_variable`` cost O(1) however deep the category is.
    """

    __slots__ = ()

    def _cache(self, structural_hash: int, has_variable: bool) -> None:
        object.__setattr__(self, "_hash", structural_hash)
        object.__setattr__(self, "_var", has_variable)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed: str
        # hashes are salted per process, so a pickled hash would be stale.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def __str__(self) -> str:
        return format_category(self)

    def __repr__(self) -> str:
        return f"<{format_category(self)}>"


# Each dataclass below re-binds ``__hash__``: a frozen dataclass would
# otherwise generate its own field-walking hash over the inherited one.


@dataclass(frozen=True, repr=False)
class Primitive(Category):
    name: str

    __hash__ = Category.__hash__

    def __post_init__(self) -> None:
        if self.name not in PRIMITIVE_NAMES:
            raise ValueError(f"unknown primitive: {self.name!r}")
        self._cache(hash((Primitive, self.name)), False)


@dataclass(frozen=True, repr=False)
class Variable(Category):
    """Category variable; appears lexically only inside the conjunction."""

    __hash__ = Category.__hash__

    def __post_init__(self) -> None:
        self._cache(hash(Variable), True)


@dataclass(frozen=True, repr=False)
class Functor(Category):
    result: Category
    slash: str
    argument: Category
    restrictions: Restrictions = NO_RESTRICTIONS

    __hash__ = Category.__hash__

    def __post_init__(self) -> None:
        if self.slash not in (FORWARD, BACKWARD):
            raise ValueError(f"slash must be '/' or '\\\\', got {self.slash!r}")
        self._cache(
            hash((self.result._hash, self.slash, self.argument._hash, self.restrictions)),
            self.result._var or self.argument._var,
        )


S = Primitive("S")
NP = Primitive("NP")
NP_SUBJ = Primitive("NP_SUBJ")
NP_OBJ = Primitive("NP_OBJ")
SCOMP = Primitive("SCOMP")


def arity(c: Category) -> int:
    """Number of argument positions on the outer spine."""
    n = 0
    while isinstance(c, Functor):
        n += 1
        c = c.result
    return n


def innermost_result(c: Category) -> Category:
    while isinstance(c, Functor):
        c = c.result
    return c


def spine(c: Category) -> tuple[Category, list[tuple[str, Category, Restrictions]]]:
    """Split off the argument spine, outermost argument first."""
    args: list[tuple[str, Category, Restrictions]] = []
    while isinstance(c, Functor):
        args.append((c.slash, c.argument, c.restrictions))
        c = c.result
    return c, args


def unspine(core: Category, args: list[tuple[str, Category, Restrictions]]) -> Category:
    """Inverse of ``spine``; ``args`` are outermost-first."""
    c = core
    for slash, argument, restr in reversed(args):
        c = Functor(c, slash, argument, restr)
    return c


def permute_cyclic(c: Category) -> Category:
    """Rotate the argument spine by one: the outermost argument moves to the
    innermost position, every argument keeps its slash and restrictions."""
    if not isinstance(c, Functor):
        raise ValueError(f"not a functor: {c}")
    core, args = spine(c)
    return unspine(core, args[1:] + [args[0]])


def contains_variable(c: Category) -> bool:
    return c._var


def is_conjunction(c: Category) -> bool:
    """Shape test for the conjunction category (var\\var)/var, restrictions
    aside (bare ``X\\X/X`` shorthand is accepted)."""
    return (
        isinstance(c, Functor)
        and c.slash == FORWARD
        and isinstance(c.argument, Variable)
        and isinstance(c.result, Functor)
        and c.result.slash == BACKWARD
        and isinstance(c.result.argument, Variable)
        and isinstance(c.result.result, Variable)
    )


# --- text format ------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z_]*|[/\\().,@]")


def _wrap(c: Category) -> str:
    text = format_category(c)
    return f"({text})" if isinstance(c, Functor) else text


def format_category(c: Category) -> str:
    if isinstance(c, Primitive):
        return c.name
    if isinstance(c, Variable):
        return "var"
    if isinstance(c, Functor):
        return f"{_wrap(c.result)}{c.slash}{c.restrictions.annotation()}{_wrap(c.argument)}"
    raise TypeError(f"not a category: {c!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _TOKEN_RE.findall(text)
        if "".join(self.tokens) != text.replace(" ", ""):
            raise ValueError(f"cannot tokenize category: {text!r}")
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of category text")
        self.pos += 1
        return tok

    def item(self) -> Category:
        tok = self.next()
        if tok == "(":
            inner = self.category()
            if self.next() != ")":
                raise ValueError("missing ')' in category text")
            return inner
        if tok in PRIMITIVE_NAMES:
            return Primitive(tok)
        if tok.lower() in ("var", "x"):
            return Variable()
        raise ValueError(f"unknown category atom: {tok!r}")

    def category(self) -> Category:
        cat = self.item()
        while self.peek() in (FORWARD, BACKWARD):
            slash = self.next()
            ann = ""
            while self.peek() in (".", ",", "@"):
                ann += self.next()
            arg = self.item()
            cat = Functor(cat, slash, arg, Restrictions.from_annotation(ann))
        return cat


def parse_category(text: str) -> Category:
    parser = _Parser(text)
    cat = parser.category()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in category text: {text!r}")
    return cat
