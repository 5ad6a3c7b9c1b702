"""Sentence sampling: length-stratified splits, targeted relative-clause test
sets, and minimal pairs.

All randomness flows from a master seed; per-grammar streams are derived with
a stable hash so per-grammar outputs do not depend on iteration order.  Each
failure to sample names the grammar and the split or kind in front.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass

from .grammars import LEXICAL_CLASSES, Grammar
from .parser import ChartParser
from .templates import Template

SHORT_BAND = (3, 8)
MEDIUM_BAND = (9, 10)
LONG_BAND = (11, 20)
DRAWS_PER_SENTENCE = 1000  # sample_split, gen_targeted: draws per wanted sentence
PAIR_RETRIES = 100  # gen_minimal_pairs: draws per pair before it gives up

DEFAULT_WORDS: dict[str, tuple[str, ...]] = {
    "NP": (
        "Kim", "Sandy", "John", "Tom", "Jerry", "man", "child", "car",
        "pasta", "fruits", "wall", "mango", "owl", "scooter", "machine",
        "elf", "shelf", "school", "trouble",
    ),
    "SUBJ": ("ga",),
    "OBJ": ("o",),
    "ADJ": ("red", "tall", "green", "fluffy", "soft", "intelligent", "small", "old"),
    "VT": (
        "kissed", "chased", "met", "received", "nibbles", "controls",
        "escorts", "promised", "caused",
    ),
    "VI": ("ran", "laughed", "sang", "danced", "walk", "evolves", "studied", "slept"),
    "VCOMP": ("said", "believed", "thought", "knew"),
    "COMP": ("that",),
    "PREP": ("in", "on", "near"),
    "REL": ("whom", "which"),
    "CONJ": ("and",),
}


@dataclass(frozen=True)
class Lexicon:
    """Per-class word lists; each word belongs to exactly one class."""

    words: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        missing = set(LEXICAL_CLASSES) - set(self.words)
        if missing:
            raise ValueError(f"lexicon missing classes: {sorted(missing)}")
        unknown = set(self.words) - set(LEXICAL_CLASSES)
        if unknown:
            raise ValueError(f"lexicon has unknown classes: {sorted(unknown)}")
        seen: dict[str, str] = {}
        for cls, forms in self.words.items():
            if not forms:
                raise ValueError(f"lexicon class {cls} has no words")
            for w in forms:
                if w in seen:
                    raise ValueError(f"word {w!r} in both {seen[w]} and {cls}")
                seen[w] = cls

    @classmethod
    def default(cls) -> "Lexicon":
        return cls(dict(DEFAULT_WORDS))

    def restricted(self, allowed: set[str]) -> "Lexicon":
        """Sub-lexicon keeping only ``allowed`` words; errors if a class is
        emptied (then the vocabulary-coverage contract cannot be met)."""
        kept = {
            cls: tuple(w for w in forms if w in allowed)
            for cls, forms in self.words.items()
        }
        empty = [cls for cls, forms in kept.items() if not forms]
        if empty:
            raise ValueError(f"restriction empties lexicon classes: {empty}")
        return Lexicon(kept)

    @classmethod
    def load(cls, path) -> "Lexicon":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("lexicon file must hold one JSON object of word lists")
        for cls_name, forms in data.items():
            if not isinstance(forms, list) or not all(isinstance(w, str) for w in forms):
                raise ValueError(
                    f"lexicon class {cls_name} must be a list of words, got {forms!r}")
        return cls({k: tuple(v) for k, v in data.items()})


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    classes: Template
    grammar_id: str
    split: str

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.classes):
            raise ValueError("token/class length mismatch")

    @property
    def length(self) -> int:
        return len(self.tokens)

    def to_json(self) -> dict:
        return {
            "grammar_id": self.grammar_id,
            "split": self.split,
            "length": self.length,
            "tokens": list(self.tokens),
            "classes": list(self.classes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Sentence":
        tokens = _field(data, "tokens", list, str)
        classes = _field(data, "classes", list, str)
        unknown = set(classes) - set(LEXICAL_CLASSES)
        if unknown:
            raise ValueError(f"record field 'classes' has unknown classes: {sorted(unknown)}")
        return cls(
            tuple(tokens),
            tuple(classes),
            _field(data, "grammar_id", str),
            _field(data, "split", str),
        )


# --- record files: the one JSON and JSONL format of every artifact ----------


def _field(data, name: str, kind: type, item=None):
    """Field ``name`` of a record read from a file, checked to be a ``kind``
    and, when ``item`` is given, a list of ``item`` values (never bool).
    Anything else is a ValueError that names the field."""
    if not isinstance(data, dict):
        raise ValueError(f"a record must be a JSON object, got {data!r}")
    if name not in data:
        raise ValueError(f"record has no field {name!r}")
    value = data[name]
    if not isinstance(value, kind) or item is not None and not all(
        isinstance(v, item) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"record field {name!r} is malformed: {value!r}")
    return value


def write_json(path, data) -> None:
    """``data`` as one JSON document, keys sorted, indented by 2."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ``json.dumps(record, sort_keys=True)`` builds a new encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path, records) -> None:
    """One JSON object a line, keys sorted: each line is
    ``json.dumps(record, sort_keys=True)``."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(_encode(record) + "\n")


def read_jsonl(path) -> list:
    """The objects of a `write_jsonl` file; blank lines are skipped.  A line
    that is not JSON is a ValueError that names the file and the line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc.msg} (column {exc.colno})") from None
    return out


def save_sentences(sentences, path) -> None:
    write_jsonl(path, (s.to_json() for s in sentences))


def save_pairs(pairs, path) -> None:
    """(grammatical, ungrammatical) sentence pairs, one JSON object a line."""
    write_jsonl(path, ({"grammatical": good.to_json(), "ungrammatical": bad.to_json()}
                       for good, bad in pairs))


def load_sentences(path) -> list[Sentence]:
    return [Sentence.from_json(d) for d in read_jsonl(path)]


def derive_seed(master_seed: int, *parts) -> int:
    key = ":".join([str(master_seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _fill(template: Template, words: dict[str, tuple[str, ...]], choice):
    """``(template, tokens)``: left to right, one ``choice`` among the words
    of each slot's class, from a lexicon's ``words``."""
    return template, tuple([choice(words[cls]) for cls in template])


def _unique_draws(draw, n: int, taken: set, failure: str) -> list:
    """``n`` >= 1 ``(template, tokens)`` results of ``draw()`` whose tokens are
    not in ``taken``, which gains them; at most ``n * DRAWS_PER_SENTENCE``
    draws, after which ``failure`` and the count found are raised."""
    out = []
    for _ in range(n * DRAWS_PER_SENTENCE):
        template, tokens = draw()
        if tokens not in taken:
            taken.add(tokens)
            out.append((template, tokens))
            if len(out) == n:
                return out
    raise ValueError(f"{failure} (found {len(out)} of {n})")


def sample_split(
    grammar: Grammar,
    templates,
    lexicon: Lexicon,
    per_length_count: int,
    band: tuple[int, int],
    seed: int,
    split: str,
    avoid: set[tuple[str, ...]] | None = None,
) -> list[Sentence]:
    """Exactly ``per_length_count`` unique sentences for every length in the
    band; the distinct templates are uniform within a length, lexical slots
    uniform.

    Before any draw, each length's capacity (the distinct sentences its
    templates can produce, less those in ``avoid``) is checked against the
    count, so an impossible request fails at once; a length that still finds
    too few fails after ``per_length_count * DRAWS_PER_SENTENCE`` draws.  An
    avoided sentence lowers the capacity by at most one, so the check stops
    summing template sizes once they reach the count plus ``len(avoid)``,
    and counts the avoided sentences of a length only when they do not."""
    where = f"{grammar.params} {split}"
    if per_length_count < 1:
        raise ValueError(f"{where}: per_length_count must be >= 1")
    lo, hi = band
    by_length: dict[int, list[Template]] = {}
    for t in dict.fromkeys(sorted(tuple(t) for t in templates if lo <= len(t) <= hi)):
        by_length.setdefault(len(t), []).append(t)
    taken = set(avoid or ())
    size = {cls: len(forms) for cls, forms in lexicon.words.items()}
    bound = per_length_count + len(taken)
    avoided = None
    for n in range(lo, hi + 1):
        pool = by_length.get(n)
        if not pool:
            raise ValueError(f"{where}: no templates available for length {n}")
        total = 0
        for t in pool:
            total += math.prod(size[c] for c in t)
            if total >= bound:
                break
        else:
            if avoided is None:
                # each word has one class, so an avoided sentence's template is known
                word_class = {w: cls for cls, forms in lexicon.words.items() for w in forms}
                avoided = Counter(tuple(word_class.get(w) for w in s) for s in taken)
            capacity = total - sum(avoided[t] for t in pool)
            if capacity < per_length_count:
                raise ValueError(
                    f"{where}: length {n} has {capacity} distinct sentences to draw "
                    f"from, {per_length_count} requested")
    choice = random.Random(seed).choice
    words = lexicon.words
    out: list[Sentence] = []
    for n in range(lo, hi + 1):
        pool = by_length[n]
        drawn = _unique_draws(lambda: _fill(choice(pool), words, choice), per_length_count,
                              taken, f"{where}: insufficient unique sentences for length {n}")
        out.extend(Sentence(tokens, t, grammar.params, split) for t, tokens in drawn)
    return out


# --- targeted constructions -------------------------------------------------


def _order_clause(base_order: str, subj, obj, verb) -> list[str]:
    """Linearize (subject phrase, object phrase, verb tokens) for a base
    order; ``obj`` None drops the object slot (object-gap clauses)."""
    slots = {"S": subj, "O": obj, "V": verb}
    out: list[str] = []
    for slot in base_order:
        part = slots[slot]
        if part is not None:
            out.extend(part)
    return out


def _marked_np() -> list[str]:
    return ["NP", "SUBJ"]


def _rel_np(grammar: Grammar, body: list[str]) -> list[str]:
    head = _marked_np()
    if grammar.params[6] == "1":  # REL head-initial: relativizer follows head
        return head + ["REL"] + body
    return body + ["REL"] + head


def _comp_clause(grammar: Grammar, clause: list[str]) -> list[str]:
    if grammar.params[3] == "1":  # preposed complementizer
        return ["COMP"] + clause
    return clause + ["COMP"]


TARGETED_KINDS = ("Recursive", "Embedded")


def targeted_skeleton(grammar: Grammar, kind: str) -> Template:
    """Class skeleton of the Recursive / Embedded construction, linearized
    for the grammar's word order."""
    order = grammar.base_order
    if kind == "Recursive":
        inner = _order_clause(order, _marked_np(), None, ["VT"])
        middle = _order_clause(order, _rel_np(grammar, inner), None, ["VT"])
        subject = _rel_np(grammar, middle)
    elif kind == "Embedded":
        gap = _order_clause(order, _marked_np(), None, ["VT"])
        body = _order_clause(order, _marked_np(), _comp_clause(grammar, gap), ["VCOMP"])
        subject = _rel_np(grammar, body)
    else:
        raise ValueError(f"{grammar.params}: unknown targeted kind {kind!r}")
    main = _order_clause(order, subject, ["NP", "OBJ"], ["VT"])
    return tuple(main)


def gen_targeted(
    grammar: Grammar,
    kind: str,
    lexicon: Lexicon,
    n: int,
    seed: int,
    parser: ChartParser,
) -> list[Sentence]:
    where = f"{grammar.params} {kind}"
    if n < 1:
        raise ValueError(f"{where}: n must be >= 1")
    skeleton = targeted_skeleton(grammar, kind)
    if not parser.parse(grammar.categorize(skeleton)).grammatical:
        raise RuntimeError(f"{where}: the targeted construction does not parse")
    capacity = math.prod(len(lexicon.words[c]) for c in skeleton)
    if capacity < n:
        raise ValueError(
            f"{where}: the skeleton has {capacity} distinct sentences to draw from, "
            f"{n} requested")
    choice = random.Random(seed).choice
    drawn = _unique_draws(lambda: _fill(skeleton, lexicon.words, choice),
                          n, set(), f"{where}: insufficient unique sentences")
    return [Sentence(tokens, skeleton, grammar.params, kind) for _, tokens in drawn]


# --- minimal pairs ----------------------------------------------------------

PAIR_KINDS = ("CaseType", "VerbType")


def _case_twin(sentence: Sentence, lexicon: Lexicon, rng: random.Random):
    """Swap one case marker's class; the new word is the other class's word
    at the old word's index, modulo that class's size (no extra draw)."""
    idxs = [i for i, c in enumerate(sentence.classes) if c in ("SUBJ", "OBJ")]
    if not idxs:
        return None
    i = rng.choice(idxs)
    classes = list(sentence.classes)
    tokens = list(sentence.tokens)
    old = lexicon.words[classes[i]]
    if tokens[i] not in old:
        raise ValueError(f"source word {tokens[i]!r} is not a {classes[i]} word of the lexicon")
    classes[i] = "OBJ" if classes[i] == "SUBJ" else "SUBJ"
    new = lexicon.words[classes[i]]
    tokens[i] = new[old.index(tokens[i]) % len(new)]
    return tuple(tokens), tuple(classes)


def _verb_twin(sentence: Sentence, lexicon: Lexicon, rng: random.Random):
    idxs = [i for i, c in enumerate(sentence.classes) if c == "VT"]
    if not idxs:
        return None
    i = rng.choice(idxs)
    classes = list(sentence.classes)
    tokens = list(sentence.tokens)
    classes[i] = "VI"
    tokens[i] = rng.choice(lexicon.words["VI"])
    return tuple(tokens), tuple(classes)


def gen_minimal_pairs(
    grammar: Grammar,
    kind: str,
    source,
    lexicon: Lexicon,
    n: int,
    seed: int,
    parser: ChartParser,
) -> list[tuple[Sentence, Sentence]]:
    """n (grammatical, ungrammatical) pairs differing in exactly one token,
    equal lengths; the ungrammatical twin is parser-verified to fail.  The
    source sentences must come from ``grammar`` (its id or an alias), whose
    language vouches for the grammatical member."""
    where = f"{grammar.params} {kind}"
    if kind not in PAIR_KINDS:
        raise ValueError(f"{where}: unknown pair kind")
    source = list(source)
    if not source:
        raise ValueError(f"{where}: empty source sentence set")
    foreign = sorted({s.grammar_id for s in source} - {grammar.params, *grammar.aliases})
    if foreign:
        raise ValueError(f"{where}: source sentences of grammar {foreign[0]}")
    twin_of = _case_twin if kind == "CaseType" else _verb_twin
    rng = random.Random(seed)
    out: list[tuple[Sentence, Sentence]] = []
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for _ in range(n):
        for _retry in range(PAIR_RETRIES):
            src = rng.choice(source)
            try:
                twin = twin_of(src, lexicon, rng)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
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
            raise RuntimeError(f"{where}: could not build a pair after {PAIR_RETRIES} retries")
    return out
