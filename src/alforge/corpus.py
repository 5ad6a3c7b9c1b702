"""Sentence sampling: length-stratified splits, targeted relative-clause test
sets, and minimal pairs, each drawn through ``templates.unique_draws`` with
``templates.picker``; and the record files every artifact is written to.

All randomness flows from a master seed; per-grammar streams are derived with
a stable hash so per-grammar outputs do not depend on iteration order.  Each
failure to sample names the grammar and the split or kind in front.

A JSONL line is built from its record's fields (``_sentence_line``, and
``evaluation._score_line``) as ``json.dumps(record, sort_keys=True)``
writes it; each file escapes each distinct string once.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .grammars import LEXICAL_CLASSES, Grammar
from .parser import ChartParser
from .templates import Template, picker, unique_draws

SHORT_BAND = (3, 8)
MEDIUM_BAND = (9, 10)
LONG_BAND = (11, 20)
BOS = "<s>"  # the n-gram boundary symbols, which no lexicon word may spell
EOS = "</s>"

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
                if w in (BOS, EOS):
                    raise ValueError(f"word {w!r} of {cls} is an n-gram boundary symbol")
                if w in seen:
                    where = f"twice in {cls}" if seen[w] == cls else f"in both {seen[w]} and {cls}"
                    raise ValueError(f"word {w!r} {where}")
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
        data = read_json(path)
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
        """The one check of a sentence, drawn or read from a file: what it
        accepts, `save_sentences` writes and `load_sentences` reads back."""
        if not isinstance(self.grammar_id, str):
            raise _malformed("grammar_id", self.grammar_id)
        if not isinstance(self.split, str):
            raise _malformed("split", self.split)
        if not _strings(self.tokens):
            raise _malformed("tokens", self.tokens)
        if not _strings(self.classes):
            raise _malformed("classes", self.classes)
        if not _CLASSES.issuperset(self.classes):
            unknown = sorted(set(self.classes) - _CLASSES)
            raise ValueError(f"record field 'classes' has unknown classes: {unknown}")
        if len(self.tokens) != len(self.classes):
            raise ValueError("token/class length mismatch")

    @property
    def length(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_json(cls, data: dict) -> "Sentence":
        return cls(
            tuple(_field(data, "tokens", list)),
            tuple(_field(data, "classes", list)),
            _field(data, "grammar_id", str),
            _field(data, "split", str),
        )


# --- record files: the one JSON and JSONL format of every artifact ----------


_CLASSES = frozenset(LEXICAL_CLASSES)


def _malformed(name: str, value) -> ValueError:
    return ValueError(f"record field {name!r} is malformed: {value!r}")


def _strings(value) -> bool:
    """Whether ``value`` is a tuple of strings, as a record's word fields
    are.  ``str.join`` takes strings only, and checks them in C."""
    if type(value) is not tuple:
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def _field(data, name: str, kind: type):
    """Field ``name`` of a record read from a file, checked to be a ``kind``,
    the JSON type its record field is made from; the record's constructor
    checks the rest.  Anything else is a ValueError that names the field."""
    if not isinstance(data, dict):
        raise ValueError(f"a record must be a JSON object, got {data!r}")
    if name not in data:
        raise ValueError(f"record has no field {name!r}")
    value = data[name]
    if not isinstance(value, kind):
        raise _malformed(name, value)
    return value


def read_json(path):
    """The one JSON document of the file ``path``; a file that is not JSON is
    a ValueError that names the file, the line and the column."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}, line {exc.lineno}: {exc.msg} (column {exc.colno})") from None


def write_json(path, data) -> None:
    """``data`` as one JSON document, keys sorted, indented by 2."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path, lines) -> None:
    """``lines``, one a line: each a JSON object, keys sorted, as
    ``json.dumps(record, sort_keys=True)`` writes it."""
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_jsonl(path, build) -> list:
    """``build`` of each object of a `write_jsonl` file; blank lines are
    skipped.  A line that is not JSON, or whose object ``build`` rejects with
    a ValueError, is a ValueError that names the file and the line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(build(json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc.msg} (column {exc.colno})") from None
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return out


class _Literals(dict):
    """The JSON text of each key, made by ``encode`` on its first lookup
    only: one memo per file written.  It is keyed by value, so it may only
    hold keys that encode alike whenever they compare equal, which 0.0 and
    -0.0, or -1 and -1.0, do not."""

    def __init__(self, encode) -> None:
        self.encode = encode

    def __missing__(self, key):
        text = self[key] = self.encode(key)
        return text


def _sentence_line(s: Sentence, text: _Literals) -> str:
    """The JSON object of ``s``, its strings from the memo ``text``."""
    return ('{"classes": [' + ", ".join(map(text.__getitem__, s.classes))
            + '], "grammar_id": ' + text[s.grammar_id]
            + ', "length": ' + str(s.length)
            + ', "split": ' + text[s.split]
            + ', "tokens": [' + ", ".join(map(text.__getitem__, s.tokens)) + "]}")


def save_sentences(sentences, path) -> None:
    text = _Literals(encode_basestring_ascii)
    write_jsonl(path, (_sentence_line(s, text) for s in sentences))


def save_pairs(pairs, path) -> None:
    """(grammatical, ungrammatical) sentence pairs, one JSON object a line."""
    text = _Literals(encode_basestring_ascii)
    write_jsonl(path, ('{"grammatical": ' + _sentence_line(good, text)
                       + ', "ungrammatical": ' + _sentence_line(bad, text) + "}"
                       for good, bad in pairs))


def load_sentences(path) -> list[Sentence]:
    return read_jsonl(path, Sentence.from_json)


def derive_seed(master_seed: int, *parts) -> int:
    key = ":".join([str(master_seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _fill(template: Template, words: dict[str, tuple[str, ...]], pick):
    """``(template, tokens)``: left to right, one ``pick`` among the words
    of each slot's class, from a lexicon's ``words``."""
    return template, tuple([pick(words[cls]) for cls in template])


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
    too few fails when ``unique_draws`` runs out of draws.  An avoided
    sentence lowers the capacity by at most one, so the check stops summing
    template sizes once they reach the count plus ``len(avoid)``, and counts
    the avoided sentences of a length only when they do not."""
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
    pick = picker(random.Random(seed))
    words = lexicon.words
    out: list[Sentence] = []
    for n in range(lo, hi + 1):
        pool = by_length[n]
        drawn = unique_draws(lambda: _fill(pick(pool), words, pick), per_length_count,
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
    pick = picker(random.Random(seed))
    drawn = unique_draws(lambda: _fill(skeleton, lexicon.words, pick),
                         n, set(), f"{where}: insufficient unique sentences")
    return [Sentence(tokens, skeleton, grammar.params, kind) for _, tokens in drawn]


# --- minimal pairs ----------------------------------------------------------

PAIR_KINDS = {"CaseType": ("SUBJ", "OBJ"), "VerbType": ("VT",)}  # the classes each perturbs


def _case_twin(sentence: Sentence, lexicon: Lexicon, pick):
    """Swap one case marker's class, ``pick`` drawing which; the new word is
    the other class's word at the old word's index, modulo that class's
    size (no extra draw)."""
    idxs = [i for i, c in enumerate(sentence.classes) if c in PAIR_KINDS["CaseType"]]
    if not idxs:
        return None
    i = pick(idxs)
    classes = list(sentence.classes)
    tokens = list(sentence.tokens)
    old = lexicon.words[classes[i]]
    if tokens[i] not in old:
        raise ValueError(f"source word {tokens[i]!r} is not a {classes[i]} word of the lexicon")
    classes[i] = "OBJ" if classes[i] == "SUBJ" else "SUBJ"
    new = lexicon.words[classes[i]]
    tokens[i] = new[old.index(tokens[i]) % len(new)]
    return tuple(tokens), tuple(classes)


def _verb_twin(sentence: Sentence, lexicon: Lexicon, pick):
    idxs = [i for i, c in enumerate(sentence.classes) if c in PAIR_KINDS["VerbType"]]
    if not idxs:
        return None
    i = pick(idxs)
    classes = list(sentence.classes)
    tokens = list(sentence.tokens)
    classes[i] = "VI"
    tokens[i] = pick(lexicon.words["VI"])
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
    if n < 1:
        raise ValueError(f"{where}: n must be >= 1")
    source = list(source)
    if not source:
        raise ValueError(f"{where}: empty source sentence set")
    foreign = sorted({s.grammar_id for s in source} - {grammar.params, *grammar.aliases})
    if foreign:
        raise ValueError(f"{where}: source sentences of grammar {foreign[0]}")
    if not any(c in PAIR_KINDS[kind] for s in source for c in s.classes):
        raise ValueError(f"{where}: no source sentence has a {' or '.join(PAIR_KINDS[kind])} "
                         "to perturb")
    twin_of = _case_twin if kind == "CaseType" else _verb_twin
    pick = picker(random.Random(seed))
    taken: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()

    def draw():
        src = pick(source)
        try:
            twin = twin_of(src, lexicon, pick)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if twin is None:
            return None
        bad_tokens, bad_classes = twin
        key = (tuple(src.tokens), bad_tokens)
        if bad_tokens == key[0] or key in taken or parser.parse(
                grammar.categorize(bad_classes)).grammatical:
            return None
        good = Sentence(key[0], tuple(src.classes), grammar.params, "PairGrammatical")
        return (good, Sentence(bad_tokens, bad_classes, grammar.params, "PairUngrammatical")), key

    return [pair for pair, _ in unique_draws(draw, n, taken, f"{where}: insufficient pairs")]
