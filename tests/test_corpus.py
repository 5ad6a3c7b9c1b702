"""Corpus builder: lexicons, stratified sampling, targeted sets, minimal pairs."""

import json
import re
from collections import Counter
from dataclasses import replace

import pytest

from alforge import corpus as corpus_module
from alforge import templates as templates_module
from alforge.corpus import (
    BOS,
    DEFAULT_WORDS,
    EOS,
    MEDIUM_BAND,
    SHORT_BAND,
    Lexicon,
    Sentence,
    derive_seed,
    gen_minimal_pairs,
    gen_targeted,
    load_sentences,
    read_jsonl,
    sample_split,
    save_pairs,
    save_sentences,
    targeted_skeleton,
    write_json,
    write_jsonl,
)
from alforge.evaluation import ScoreRecord, save_scores
from alforge.grammars import enumerate_grammars, grammar_by_id
from alforge.parser import ChartParser
from alforge.templates import enumerate_templates, sample_long_templates

from oracle import reference_pair_record, reference_score_record, reference_sentence_record

EN = grammar_by_id("0101101")
EN_TEMPLATES = enumerate_templates(EN, 10)
EN_PARSER = ChartParser(EN.policy)
LEX = Lexicon.default()


class TestLexicon:
    def test_default_valid(self):
        assert {w for forms in LEX.words.values() for w in forms} >= {
            "Kim", "ga", "o", "and", "that"}

    def test_duplicate_word_rejected(self):
        words = dict(DEFAULT_WORDS)
        words["ADJ"] = words["ADJ"] + ("Kim",)
        with pytest.raises(ValueError):
            Lexicon(words)

    @pytest.mark.parametrize("cls, message", [
        ("NP", "word 'Kim' twice in NP"), ("ADJ", "word 'Kim' in both NP and ADJ"),
    ])
    def test_duplicate_word_named(self, cls, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Lexicon({**DEFAULT_WORDS, cls: DEFAULT_WORDS[cls] + ("Kim",)})

    def test_empty_class_rejected(self):
        words = dict(DEFAULT_WORDS)
        words["VI"] = ()
        with pytest.raises(ValueError):
            Lexicon(words)

    def test_missing_class_rejected(self):
        words = dict(DEFAULT_WORDS)
        del words["REL"]
        with pytest.raises(ValueError):
            Lexicon(words)

    @pytest.mark.parametrize("symbol", [BOS, EOS])
    def test_boundary_symbol_rejected(self, symbol):
        # such a word would be counted as n-gram padding
        with pytest.raises(ValueError, match=f"^word {re.escape(repr(symbol))} of VI is an "
                                             "n-gram boundary symbol$"):
            Lexicon({**DEFAULT_WORDS, "VI": DEFAULT_WORDS["VI"] + (symbol,)})

    def test_unknown_class_rejected(self):
        # a misspelt class would otherwise be ignored: no template names it
        with pytest.raises(ValueError, match=r"lexicon has unknown classes: \['VTT'\]"):
            Lexicon({**DEFAULT_WORDS, "VTT": ("saw",)})

    def test_restricted(self):
        allowed = {forms[0] for forms in DEFAULT_WORDS.values()}
        small = LEX.restricted(allowed)
        assert {w for forms in small.words.values() for w in forms} == allowed
        with pytest.raises(ValueError):
            LEX.restricted(allowed - {"ga"})

    def test_save_load(self, tmp_path):
        path = tmp_path / "lex.json"
        write_json(path, LEX.words)
        assert Lexicon.load(path).words == LEX.words

    def test_load_rejects_non_list_class(self, tmp_path):
        # a bare string would otherwise load as its characters
        path = tmp_path / "lex.json"
        for bad in ("ga", ["ga", 1]):
            path.write_text(json.dumps({**DEFAULT_WORDS, "SUBJ": bad}))
            with pytest.raises(ValueError, match="lexicon class SUBJ must be a list of words"):
                Lexicon.load(path)
        path.write_text(json.dumps(list(DEFAULT_WORDS)))
        with pytest.raises(ValueError, match="one JSON object"):
            Lexicon.load(path)


class TestSentence:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Sentence(("Kim",), ("NP", "SUBJ"), "0101101", "ShortTrain")

    def test_jsonl_round_trip(self, tmp_path):
        sents = sample_split(EN, EN_TEMPLATES, LEX, 2, (3, 5), seed=1, split="ShortTrain")
        path = tmp_path / "s.jsonl"
        save_sentences(sents, path)
        assert load_sentences(path) == sents


class TestRecordFiles:
    def test_write_jsonl_lines_are_json_dumps(self, tmp_path):
        records = [
            {"tokens": ["Zoë", "日本", "🦉"], "b": 'say "hi"', "a": "back\\slash\n\ttab"},
            {"logprobs": [-0.0, 1e-300, -1e-300, 0.1 + 0.2, -2.5e17, 7], "nested": [[1, [2.5]], []]},
            {"z": {"y": [None, True, False], "x": {}}, "": -0.0},
            {},
        ]
        path = tmp_path / "r.jsonl"
        write_jsonl(path, (json.dumps(r, sort_keys=True) for r in records))
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert path.read_bytes() == expected.encode()
        assert read_jsonl(path, dict) == records

    def test_malformed_line_named(self, tmp_path):
        # the decoder's own position counts lines inside the one record
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n{"c": 3, "d": [4], "e": 5, }\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl, line 4: Expecting property name"):
            read_jsonl(path, dict)

    def test_rejected_record_named(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = reference_sentence_record(Sentence(("Kim", "ran"), ("NP", "VI"), "0101101", "ShortTrain"))
        write_jsonl(path, [json.dumps(r, sort_keys=True)
                           for r in (good, {k: v for k, v in good.items() if k != "tokens"})])
        with pytest.raises(ValueError, match=r"t\.jsonl, line 2: record has no field 'tokens'$"):
            load_sentences(path)


class TestRecordLines:
    """`save_sentences`, `save_pairs` and `save_scores` build each line from
    the record's fields; every line must be ``json.dumps`` of the record's
    dict (``tests/oracle.py``), keys sorted, whatever its strings and
    numbers."""

    ODD = ("Zoë", "日本", "🦉", 'say "hi"', "back\\slash", "\n\t\x00\x1f\x7f", "\u2028", "", "Kim")
    GID, SPLIT = 'g"\\\u00e9\n0101101', "Short\tTrain\U0001F989"
    # a float memo keyed on value alone merges some neighbours here, in one
    # order or the other: -0.0 and 0.0, -1 and -1.0, 0 and False
    LOGPROBS = (-0.0, 0.0, 0, -1, -1.0, False, float("-inf"), -5e-324, -1e308,
                -1.7976931348623157e308, -2.2250738585072014e-308, -(0.1 + 0.2),
                -1.2345678901234567, -1.0000000000000002, -1.0, -0.0, -1, -123456789012345678901)

    def sentences(self):
        odd = self.ODD
        return [
            Sentence(odd, odd[::-1], self.GID, self.SPLIT),
            Sentence(("Kim", "ran"), ("NP", "VI"), "0101101", "ShortTrain"),
            Sentence((), (), self.GID, ""),
            Sentence(odd[3:], odd[:-3], "0101101", self.SPLIT),
        ]

    def scores(self):
        lps = self.LOGPROBS
        out = []
        for logprobs in (lps, lps[::-1], lps[1::2], lps[::2], (-0.0,), (0,), (-1.0, -1)):
            tokens = (self.ODD * 3)[:len(logprobs) - 1]
            out.append(ScoreRecord(self.GID, tokens, logprobs))
        return out

    @staticmethod
    def assert_lines(path, dicts):
        text = path.read_bytes().decode("ascii")
        assert text == "".join(json.dumps(d, sort_keys=True) + "\n" for d in dicts)

    def test_sentence_lines(self, tmp_path):
        sents = self.sentences()
        save_sentences(sents, tmp_path / "s.jsonl")
        self.assert_lines(tmp_path / "s.jsonl", map(reference_sentence_record, sents))

    def test_pair_lines(self, tmp_path):
        sents = self.sentences()
        pairs = list(zip(sents, sents[1:] + sents[:1]))
        save_pairs(pairs, tmp_path / "p.jsonl")
        self.assert_lines(tmp_path / "p.jsonl", (reference_pair_record(*p) for p in pairs))

    def test_score_lines(self, tmp_path):
        records = self.scores()
        save_scores(records, tmp_path / "r.jsonl")
        self.assert_lines(tmp_path / "r.jsonl", map(reference_score_record, records))


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(0, "a", "b") == derive_seed(0, "a", "b")

    def test_distinct_streams(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")


class TestSampling:
    def test_exact_counts_and_dedup(self):
        sents = sample_split(EN, EN_TEMPLATES, LEX, 5, SHORT_BAND, seed=3, split="ShortTrain")
        counts = {}
        for s in sents:
            counts[s.length] = counts.get(s.length, 0) + 1
        assert counts == {n: 5 for n in range(SHORT_BAND[0], SHORT_BAND[1] + 1)}
        assert len({s.tokens for s in sents}) == len(sents)

    def test_sentences_are_grammatical(self):
        parser = ChartParser(EN.policy)
        for s in sample_split(EN, EN_TEMPLATES, LEX, 3, MEDIUM_BAND, seed=4, split="MediumTest"):
            assert parser.parse(EN.categorize(s.classes)).grammatical

    def test_determinism(self):
        a = sample_split(EN, EN_TEMPLATES, LEX, 4, SHORT_BAND, seed=7, split="ShortTrain")
        b = sample_split(EN, EN_TEMPLATES, LEX, 4, SHORT_BAND, seed=7, split="ShortTrain")
        assert a == b
        c = sample_split(EN, EN_TEMPLATES, LEX, 4, SHORT_BAND, seed=8, split="ShortTrain")
        assert a != c

    def test_avoid_set(self):
        train = sample_split(EN, EN_TEMPLATES, LEX, 3, SHORT_BAND, seed=1, split="ShortTrain")
        test = sample_split(
            EN, EN_TEMPLATES, LEX, 3, SHORT_BAND, seed=2, split="ShortTest",
            avoid={s.tokens for s in train},
        )
        assert not {s.tokens for s in train} & {s.tokens for s in test}

    def test_zero_count(self):
        for count in (0, -1):
            with pytest.raises(ValueError, match=r"^0101101 x: per_length_count must be >= 1$"):
                sample_split(EN, EN_TEMPLATES, LEX, count, SHORT_BAND, seed=1, split="x")

    def test_missing_length_errors(self):
        with pytest.raises(ValueError, match="length 4"):
            sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 1, SHORT_BAND, seed=1, split="x")

    def test_exhaustion_names_length(self):
        tiny = Lexicon({cls: (forms[0],) for cls, forms in DEFAULT_WORDS.items()})
        with pytest.raises(ValueError, match="length 3"):
            sample_split(EN, [("NP", "SUBJ", "VI")], tiny, 5, (3, 3), seed=1, split="x")

    def test_rejection_limit(self):
        """Past the capacity check, a length still fails after
        ``per_length_count * DRAWS_PER_RESULT`` draws: 1 of 40,000
        sentences is left."""
        words = dict(DEFAULT_WORDS, NP=tuple(f"np{i}" for i in range(200)))
        avoid = {(a, b) for a in words["NP"] for b in words["NP"]}
        avoid.discard(("np0", "np0"))
        with pytest.raises(ValueError, match="insufficient unique sentences for length 2"):
            sample_split(EN, [("NP", "NP")], Lexicon(words), 1, (2, 2), seed=1, split="x",
                         avoid=avoid)

    def test_capacity_checked_before_drawing(self):
        # 19 NP words x 1 particle x 8 VI words = 152 distinct sentences
        with pytest.raises(ValueError, match=r"length 3 has 152 .*1000 requested"):
            sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 1000, (3, 3), seed=1, split="x")
        sents = sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 152, (3, 3), seed=1, split="x")
        assert len({s.tokens for s in sents}) == 152

    def test_capacity_excludes_avoided(self):
        first = sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 150, (3, 3), seed=1, split="x")
        # a sentence of another template does not lower the capacity
        avoid = {s.tokens for s in first} | {("Kim", "ran", "ga")}
        with pytest.raises(ValueError, match=r"length 3 has 2 .*1000 requested"):
            sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 1000, (3, 3), seed=2, split="x",
                         avoid=avoid)
        rest = sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 2, (3, 3), seed=2, split="x",
                            avoid=avoid)
        assert not {s.tokens for s in rest} & avoid

    def test_duplicate_templates_draw_as_distinct(self):
        """Templates are uniform over the distinct ones: repeating some in
        the list changes no draw."""
        doubled = EN_TEMPLATES + EN_TEMPLATES[::3] + [list(t) for t in EN_TEMPLATES[:40]]
        for band, count in ((SHORT_BAND, 20), (MEDIUM_BAND, 5)):
            assert sample_split(EN, doubled, LEX, count, band, seed=9, split="x") == \
                sample_split(EN, EN_TEMPLATES, LEX, count, band, seed=9, split="x")


class TestCapacityBoundary:
    """The capacity check stops summing template sizes once they reach the
    count plus ``len(avoid)``, and counts the avoided sentences only when
    they do not; either way a count equal to the capacity passes and one
    more fails with the exact capacity."""

    SMALL = [("NP", "SUBJ", "VI"), ("NP", "OBJ", "VI")]  # 19 x 1 x 8 = 152 sentences each

    @pytest.fixture
    def avoided_counts(self, monkeypatch):
        """One entry per time ``sample_split`` counts the avoided sentences."""
        calls = []

        def counter(*args):
            calls.append(1)
            return Counter(*args)

        monkeypatch.setattr(corpus_module, "Counter", counter)
        return calls

    def draw(self, count, avoid=None):
        return sample_split(EN, self.SMALL, LEX, count, (3, 3), seed=1, split="x", avoid=avoid)

    def test_bound_settles(self, avoided_counts):
        assert len({s.tokens for s in self.draw(304)}) == 304
        # 2 avoided sentences of the templates: count + 2 is still 304
        avoid = {s.tokens for s in self.draw(2)}
        rest = self.draw(302, avoid=avoid)
        assert len({s.tokens for s in rest}) == 302 and not {s.tokens for s in rest} & avoid
        assert avoided_counts == []
        with pytest.raises(ValueError, match=r"^0101101 x: length 3 has 304 distinct "
                                             r"sentences to draw from, 305 requested$"):
            self.draw(305)
        with pytest.raises(ValueError, match=r"^0101101 x: length 3 has 302 distinct "
                                             r"sentences to draw from, 303 requested$"):
            self.draw(303, avoid=avoid)
        assert avoided_counts == [1, 1]

    def test_avoided_sentences_counted(self, avoided_counts):
        # 150 avoided sentences of the templates and 2 of other templates,
        # which lower no capacity: 154 + 152 passes the templates' 304
        avoid = {s.tokens for s in self.draw(150)} | {("Kim", "ran", "ga"), ("o", "Kim", "ran")}
        rest = self.draw(154, avoid=avoid)
        assert len({s.tokens for s in rest}) == 154 and not {s.tokens for s in rest} & avoid
        with pytest.raises(ValueError, match=r"^0101101 x: length 3 has 154 distinct "
                                             r"sentences to draw from, 155 requested$"):
            self.draw(155, avoid=avoid)
        assert avoided_counts == [1, 1]


class TestTargeted:
    @pytest.mark.parametrize("kind", ["Recursive", "Embedded"])
    def test_parses_for_all_grammars(self, kind):
        for g in enumerate_grammars():
            skel = targeted_skeleton(g, kind)
            assert ChartParser(g.policy).parse(g.categorize(skel)).grammatical, g.params

    def test_skeleton_english(self):
        assert targeted_skeleton(EN, "Recursive") == (
            "NP", "SUBJ", "REL", "NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VT",
            "VT", "NP", "OBJ",
        )
        assert targeted_skeleton(EN, "Embedded") == (
            "NP", "SUBJ", "REL", "NP", "SUBJ", "VCOMP", "COMP", "NP", "SUBJ",
            "VT", "VT", "NP", "OBJ",
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            targeted_skeleton(EN, "Nested")

    def test_generated_sentences(self):
        sents = gen_targeted(EN, "Recursive", LEX, 10, seed=5, parser=EN_PARSER)
        assert len(sents) == 10
        assert len({s.tokens for s in sents}) == 10
        for s in sents:
            assert s.length > SHORT_BAND[1]
            assert s.split == "Recursive"

    def test_bad_n(self):
        with pytest.raises(ValueError):
            gen_targeted(EN, "Recursive", LEX, 0, seed=1, parser=EN_PARSER)

    def test_capacity_checked_before_drawing(self):
        one_each = Lexicon({cls: forms[:1] for cls, forms in LEX.words.items()})
        with pytest.raises(ValueError, match="has 1 distinct sentences to draw from, 2 requested"):
            gen_targeted(EN, "Recursive", one_each, 2, seed=1, parser=EN_PARSER)
        assert len(gen_targeted(EN, "Recursive", one_each, 1, seed=1, parser=EN_PARSER)) == 1


class TestFailuresNameGrammar:
    """Every sampling failure names the grammar and the split or kind."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 1, SHORT_BAND, seed=1,
                              split="ShortTest"),
         ValueError, "0101101 ShortTest: no templates available for length 4"),
        (lambda: gen_targeted(EN, "Recursive", LEX, 0, seed=1, parser=EN_PARSER),
         ValueError, "0101101 Recursive: n must be >= 1"),
        (lambda: gen_targeted(EN, "Nested", LEX, 1, seed=1, parser=EN_PARSER),
         ValueError, "0101101: unknown targeted kind 'Nested'"),
        (lambda: gen_targeted(EN, "Embedded", Lexicon({c: f[:1] for c, f in LEX.words.items()}),
                              2, seed=1, parser=EN_PARSER),
         ValueError, "0101101 Embedded: the skeleton has 1 distinct sentences to draw from, "
                     "2 requested"),
        (lambda: gen_minimal_pairs(EN, "Nested", [], LEX, 1, seed=1, parser=EN_PARSER),
         ValueError, "0101101 Nested: unknown pair kind"),
        (lambda: gen_minimal_pairs(EN, "CaseType", [], LEX, 1, seed=1, parser=EN_PARSER),
         ValueError, "0101101 CaseType: empty source sentence set"),
        (lambda: gen_minimal_pairs(
            EN, "VerbType",
            sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 2, (3, 3), seed=1, split="ShortTest"),
            LEX, 1, seed=1, parser=EN_PARSER),
         ValueError, "0101101 VerbType: no source sentence has a VT to perturb"),
        (lambda: gen_minimal_pairs(EN, "CaseType", [Sentence(("Kim", "ran"), ("NP", "VI"),
                                                             "0101101", "x")],
                                   LEX, 1, seed=1, parser=EN_PARSER),
         ValueError, "0101101 CaseType: no source sentence has a SUBJ or OBJ to perturb"),
        (lambda: sample_long_templates([("NP", "SUBJ", "VI")], EN, per_length=5, min_len=19,
                                       max_len=20, seed=0, parser=EN_PARSER),
         ValueError, "0101101 Long templates: insufficient templates for length 19 "
                     "(found 0 of 5)"),
        (lambda: sample_long_templates(EN_TEMPLATES, EN, 0, 11, 12, seed=1, parser=EN_PARSER),
         ValueError, "0101101 Long templates: per_length must be >= 1"),
        (lambda: gen_minimal_pairs(
            EN, "VerbType",
            sample_split(EN, [("NP", "SUBJ", "VI")], LEX, 2, (3, 3), seed=1, split="ShortTest"),
            LEX, 0, seed=1, parser=EN_PARSER),
         ValueError, "0101101 VerbType: n must be >= 1"),
    ])
    def test_message(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_drawn_failures(self, source):
        lex = Lexicon({**DEFAULT_WORDS, "SUBJ": ("wa",), "OBJ": ("wo",)})
        with pytest.raises(ValueError, match=r"^0101101 CaseType: source word '\w+' is not a "
                                             r"(SUBJ|OBJ) word of the lexicon$"):
            gen_minimal_pairs(EN, "CaseType", source, lex, 1, seed=1, parser=EN_PARSER)
        # as in test_rejection_limit: 1 of 40,000 sentences is left
        words = dict(DEFAULT_WORDS, NP=tuple(f"np{i}" for i in range(200)))
        avoid = {(a, b) for a in words["NP"] for b in words["NP"]} - {("np0", "np0")}
        with pytest.raises(ValueError, match=r"^0101101 x: insufficient unique sentences for "
                                             r"length 2 \(found 0 of 1\)$"):
            sample_split(EN, [("NP", "NP")], Lexicon(words), 1, (2, 2), seed=1, split="x",
                         avoid=avoid)


class TestOneDrawBudget:
    """``templates.unique_draws`` is every sampler's draw loop, and its one
    constant is every sampler's budget: at 0 draws per result each sampler
    fails with its grammar-prefixed ``(found 0 of n)`` message."""

    @pytest.mark.parametrize("make, message", [
        (lambda src: sample_split(EN, EN_TEMPLATES, LEX, 2, (3, 4), seed=1, split="ShortTest"),
         "0101101 ShortTest: insufficient unique sentences for length 3 (found 0 of 2)"),
        (lambda src: gen_targeted(EN, "Embedded", LEX, 3, seed=1, parser=EN_PARSER),
         "0101101 Embedded: insufficient unique sentences (found 0 of 3)"),
        (lambda src: sample_long_templates(EN_TEMPLATES, EN, 4, 11, 12, seed=1, parser=EN_PARSER),
         "0101101 Long templates: insufficient templates for length 11 (found 0 of 4)"),
        (lambda src: gen_minimal_pairs(EN, "CaseType", src, LEX, 5, seed=1, parser=EN_PARSER),
         "0101101 CaseType: insufficient pairs (found 0 of 5)"),
    ])
    def test_budget_is_shared(self, make, message, source, monkeypatch):
        assert make(source)  # the samplers succeed at the real budget
        monkeypatch.setattr(templates_module, "DRAWS_PER_RESULT", 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(source)


@pytest.fixture(scope="module")
def source():
    return sample_split(EN, EN_TEMPLATES, LEX, 5, SHORT_BAND, seed=11, split="ShortTrain")


class TestMinimalPairs:
    @pytest.mark.parametrize("kind", ["CaseType", "VerbType"])
    def test_contract(self, kind, source):
        parser = ChartParser(EN.policy)
        pairs = gen_minimal_pairs(EN, kind, source, LEX, 8, seed=12, parser=parser)
        assert len(pairs) == 8
        for good, bad in pairs:
            assert good.length == bad.length
            diff = [i for i in range(good.length) if good.tokens[i] != bad.tokens[i]]
            assert len(diff) == 1
            assert parser.parse(EN.categorize(good.classes)).grammatical
            assert not parser.parse(EN.categorize(bad.classes)).grammatical

    def test_unknown_kind(self, source):
        with pytest.raises(ValueError):
            gen_minimal_pairs(EN, "Tense", source, LEX, 1, seed=1, parser=EN_PARSER)

    def test_empty_source(self):
        with pytest.raises(ValueError):
            gen_minimal_pairs(EN, "CaseType", [], LEX, 1, seed=1, parser=EN_PARSER)

    def test_alias_source(self):
        # A source written under an alias is the same grammar's; another
        # grammar's source fails (tests/test_cli.py).
        g = grammar_by_id("0100000")
        alias = g.aliases[0]
        templates = enumerate_templates(g, SHORT_BAND[1])
        source = [replace(s, grammar_id=alias)
                  for s in sample_split(g, templates, LEX, 3, SHORT_BAND, seed=2, split="ShortTest")]
        parser = ChartParser(g.policy)
        pairs = gen_minimal_pairs(g, "CaseType", source, LEX, 2, seed=1, parser=parser)
        assert len(pairs) == 2

    def test_case_twin_uses_lexicon(self):
        # The swapped marker is a word of its new class in the run's lexicon.
        lex = Lexicon({**DEFAULT_WORDS, "SUBJ": ("wa", "ka"), "OBJ": ("wo",)})
        source = sample_split(EN, EN_TEMPLATES, lex, 5, MEDIUM_BAND, seed=4, split="MediumTest")
        pairs = gen_minimal_pairs(EN, "CaseType", source, lex, 8, seed=5, parser=EN_PARSER)
        assert len(pairs) == 8
        for sentence in (s for pair in pairs for s in pair):
            for token, cls in zip(sentence.tokens, sentence.classes):
                assert token in lex.words[cls], (token, cls)

    def test_case_twin_foreign_word(self, source):
        lex = Lexicon({**DEFAULT_WORDS, "SUBJ": ("wa",), "OBJ": ("wo",)})
        with pytest.raises(ValueError, match="not a (SUBJ|OBJ) word of the lexicon"):
            gen_minimal_pairs(EN, "CaseType", source, lex, 1, seed=1, parser=EN_PARSER)

    def test_determinism(self, source):
        a = gen_minimal_pairs(EN, "CaseType", source, LEX, 5, seed=3, parser=ChartParser(EN.policy))
        b = gen_minimal_pairs(EN, "CaseType", source, LEX, 5, seed=3, parser=EN_PARSER)
        assert a == b
