"""End-to-end acceptance suite.

Each criterion is one test; `pytest -v` therefore emits one pass/fail line per
criterion.  Every test also prints a `CRITERION n: PASS|FAIL` line (visible in
failure output and with `-s`).  Tolerances and runtime budgets are asserted
inside the tests.
"""

import filecmp
import math
import time
from itertools import product

import scipy.stats

from alforge.categories import NP, format_category, parse_category
from alforge.cli import RunConfig, _pipeline_one, main
from alforge.combinators import RuleId
from alforge.corpus import Lexicon, derive_seed, gen_minimal_pairs, load_sentences
from alforge.evaluation import (
    ScoreRecord,
    TypologyTable,
    judge_pairs,
    pearson,
    perplexity,
    plausibility,
    ta_score,
)
from alforge.grammars import LEXICAL_CLASSES, enumerate_grammars, grammar_by_id
from alforge.parser import ChartParser
from alforge.templates import grammatical_sequences, heuristic_filter

from oracle import chart_derivable, derivation_rules, oracle_grammatical


def report(n: int, desc: str, ok: bool) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def grammatical(gid: str, classes) -> bool:
    g = grammar_by_id(gid)
    return ChartParser(g.policy).parse(g.categorize(classes)).grammatical


ENGLISH_TABLE = {
    "NP": "NP",
    "SUBJ": "NP_SUBJ\\,NP",
    "OBJ": "NP_OBJ\\,NP",
    "ADJ": "NP/,NP",
    "VT": "(S\\NP_SUBJ)/NP_OBJ",
    "VI": "S\\NP_SUBJ",
    "VCOMP": "(S\\NP_SUBJ)/SCOMP",
    "COMP": "SCOMP/S",
    "PREP": "(NP/NP)\\NP",
    "REL": "(NP_SUBJ\\NP_SUBJ)/(S/NP_OBJ)",
    "CONJ": "(var\\.,@var)/.,@var",
}

SHOWCASE = ("ADJ", "NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VI", "CONJ", "VI")


def test_criterion_1_grammar_inventory():
    start = time.monotonic()
    grammars = enumerate_grammars()
    english = grammar_by_id("0101101")
    got = {cls: format_category(cat) for cls, cat in english.lexicon}
    elapsed = time.monotonic() - start
    ok = (
        len(grammars) == 96
        and len({g.params for g in grammars}) == 96
        and got == ENGLISH_TABLE
        and elapsed < 1.0
    )
    report(1, "96 grammars; 0101101 lexicon matches reference table; < 1 s", ok)


def test_criterion_2_full_derivation():
    start = time.monotonic()
    g = grammar_by_id("0101101")
    result = ChartParser(g.policy).parse(g.categorize(SHOWCASE), derivations=True)
    needed = {RuleId.FWD_APP, RuleId.BWD_APP, RuleId.BWD_COMP, RuleId.COORD, RuleId.PERMUTE}
    covered = any(needed <= derivation_rules(d) for d in result.derivations)
    elapsed = time.monotonic() - start
    ok = result.grammatical and covered and elapsed < 1.0
    report(2, "10-class sequence parses with App/Comp/Coord/Permute coverage; < 1 s", ok)


def test_criterion_3_reference_fixtures():
    start = time.monotonic()
    ok = True

    # Four rule-demonstration derivations over raw English categories.
    vt = parse_category("(S\\NP)/NP")
    always = ChartParser(None)  # no REL category: always permutes
    ok &= always.parse([NP, vt, NP]).grammatical
    modifier = [NP, parse_category("(NP\\NP)/NP"), NP, parse_category("S\\NP")]
    ok &= always.parse(modifier).grammatical
    ok &= always.parse([NP, parse_category("(var\\.,@var)/.,@var"), NP, vt, NP]).grammatical
    rel_np = [NP, parse_category("(NP\\NP)/(S/NP)"), NP, vt]
    ok &= NP in chart_derivable(always, rel_np)

    # Five multi-word lexical-class examples under 0101101.
    for seq in (
        ("NP", "SUBJ", "VT", "NP", "OBJ"),
        ("ADJ", "NP", "SUBJ", "VI"),
        ("NP", "PREP", "NP", "SUBJ", "VI"),
        ("NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VI"),
        ("NP", "CONJ", "NP", "SUBJ", "VI"),
    ):
        ok &= grammatical("0101101", seq)

    # Six targeted unbounded-dependency sequences (three word orders).
    targeted = {
        "0000000": [
            ("NP", "SUBJ", "VT", "REL", "NP", "SUBJ", "VT", "REL", "NP", "SUBJ", "NP", "OBJ", "VT"),
            ("NP", "SUBJ", "NP", "SUBJ", "VT", "COMP", "VCOMP", "REL", "NP", "SUBJ", "NP", "OBJ", "VT"),
        ],
        "0101101": [
            ("NP", "SUBJ", "REL", "NP", "SUBJ", "REL", "NP", "SUBJ", "VT", "VT", "VT", "NP", "OBJ"),
            ("NP", "SUBJ", "REL", "NP", "SUBJ", "VCOMP", "COMP", "NP", "SUBJ", "VT", "VT", "NP", "OBJ"),
        ],
        "1111111": [
            ("VT", "NP", "OBJ", "NP", "SUBJ", "REL", "VT", "NP", "SUBJ", "REL", "VT", "NP", "SUBJ"),
            ("VT", "NP", "OBJ", "NP", "SUBJ", "REL", "VCOMP", "COMP", "VT", "NP", "SUBJ", "NP", "SUBJ"),
        ],
    }
    for gid, seqs in targeted.items():
        for seq in seqs:
            ok &= grammatical(gid, seq)

    # Minimal-pair fixtures: grammatical member parses, starred member fails.
    pairs = {
        "0000000": [
            (("ADJ", "ADJ", "CONJ", "ADJ", "NP", "SUBJ", "NP", "OBJ", "VT"),
             ("ADJ", "ADJ", "CONJ", "ADJ", "NP", "OBJ", "NP", "OBJ", "VT")),
            (("ADJ", "NP", "SUBJ", "VT", "REL", "NP", "SUBJ", "VI"),
             ("ADJ", "NP", "SUBJ", "VI", "REL", "NP", "SUBJ", "VI")),
        ],
        "0101101": [
            (("ADJ", "ADJ", "CONJ", "ADJ", "NP", "SUBJ", "VT", "NP", "OBJ"),
             ("ADJ", "ADJ", "CONJ", "ADJ", "NP", "OBJ", "VT", "NP", "OBJ")),
            (("NP", "SUBJ", "REL", "ADJ", "NP", "SUBJ", "VT", "VI"),
             ("NP", "SUBJ", "REL", "ADJ", "NP", "SUBJ", "VI", "VI")),
        ],
        "1111111": [
            (("VT", "NP", "OBJ", "NP", "ADJ", "ADJ", "CONJ", "ADJ", "SUBJ"),
             ("VT", "NP", "OBJ", "NP", "ADJ", "ADJ", "CONJ", "ADJ", "OBJ")),
            (("VI", "NP", "SUBJ", "REL", "VT", "NP", "ADJ", "SUBJ"),
             ("VI", "NP", "SUBJ", "REL", "VI", "NP", "ADJ", "SUBJ")),
        ],
    }
    for gid, fixture_pairs in pairs.items():
        for good, bad in fixture_pairs:
            ok &= grammatical(gid, good)
            ok &= not grammatical(gid, bad)

    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 5.0
    report(3, "rule demos, lexical-class examples, targeted and pair fixtures; < 5 s", ok)


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for gid in ("0000000", "0101101", "1111111"):  # verb-final / medial / initial
        g = grammar_by_id(gid)
        parser = ChartParser(g.policy)
        for n in range(1, 5):
            for classes in product(LEXICAL_CLASSES, repeat=n):
                got = parser.parse(g.categorize(classes)).grammatical
                want = oracle_grammatical(g, classes)
                mismatches += got != want
                checked += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and checked == 3 * sum(len(LEXICAL_CLASSES) ** n for n in range(1, 5))
    ok = ok and elapsed < 300.0
    report(4, f"parser equals brute-force oracle on {checked} sequences; < 5 min", ok)


def test_criterion_5_heuristic_soundness():
    start = time.monotonic()
    violations = 0
    for g in enumerate_grammars():
        lang = grammatical_sequences(g, 5)
        for n, seqs in lang.items():
            for seq in seqs:
                if not heuristic_filter(seq):
                    violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 1800.0
    report(5, "no heuristic-rejected sequence is grammatical (96 grammars, len <= 5); < 30 min", ok)


def test_criterion_6_dataset_contracts(tmp_path):
    start = time.monotonic()
    cfg = RunConfig(master_seed=11).scaled(0.1)
    assert cfg.train_per_length == 100
    ok = True
    for gid in ("0101101", "0000000"):
        g = grammar_by_id(gid)
        res = _pipeline_one(gid, cfg, tmp_path, Lexicon.default())
        splits = {
            name: load_sentences(tmp_path / f"{gid}_{name}.jsonl")
            for name in ("ShortTrain", "ShortTest", "MediumTest", "LongTest",
                         "Recursive", "Embedded")
        }
        per_length = {"ShortTrain": cfg.train_per_length, "ShortTest": cfg.test_per_length,
                      "MediumTest": cfg.test_per_length, "LongTest": cfg.long_per_length}
        bands = {"ShortTrain": (3, 8), "ShortTest": (3, 8), "MediumTest": (9, 10),
                 "LongTest": (11, 20)}
        for name, want in per_length.items():
            lo, hi = bands[name]
            counts = {}
            for s in splits[name]:
                counts[s.length] = counts.get(s.length, 0) + 1
            ok &= counts == {n: want for n in range(lo, hi + 1)}
        train_tokens = {s.tokens for s in splits["ShortTrain"]}
        train_vocab = {w for s in splits["ShortTrain"] for w in s.tokens}
        for name in ("ShortTest", "MediumTest", "LongTest"):
            ok &= not train_tokens & {s.tokens for s in splits[name]}
            ok &= {w for s in splits[name] for w in s.tokens} <= train_vocab
        for kind in ("Recursive", "Embedded"):
            ok &= all(s.length > 8 for s in splits[kind])
        pairs = gen_minimal_pairs(
            g, "CaseType", splits["MediumTest"], Lexicon.default(), cfg.pair_n,
            derive_seed(cfg.master_seed, gid, "pairs-CaseType"), ChartParser(g.policy),
        )
        for good, bad in pairs:
            diff = sum(a != b for a, b in zip(good.tokens, bad.tokens))
            ok &= good.length == bad.length and diff == 1
    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 120.0
    report(6, "per-length counts, disjointness, coverage, bands, pair shape; < 2 min", ok)


def test_criterion_7_statistics_oracles():
    ok = True

    # Perplexity against direct arithmetic.
    recs = [
        ScoreRecord("g", ("a",), (-1.25, -0.5)),
        ScoreRecord("g", ("b", "c"), (-0.75, -2.0, -0.25)),
    ]
    direct = math.exp(-(-1.25 - 0.5 - 0.75 - 2.0 - 0.25) / 5)
    ok &= abs(perplexity(recs) - direct) < 1e-12

    # Uniform model PPL equals vocabulary size.
    v = 23
    uniform = [ScoreRecord("g", ("w",) * n, (-math.log(v),) * (n + 1)) for n in (2, 5, 7)]
    ok &= abs(perplexity(uniform) - v) < 1e-9

    # Pearson r and p against an independent implementation.
    x = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0]
    y = [2.0, 3.0, 2.5, 7.0, 6.0, 5.5, 4.0]
    r, p = pearson(x, y)
    ref = scipy.stats.pearsonr(x, y)
    ok &= abs(r - ref.statistic) < 1e-12 and abs(p - ref.pvalue) < 1e-12

    # Plausibility against direct factor products.
    table = TypologyTable.default()
    ok &= abs(plausibility(grammar_by_id("0101101"), table) - 0.23 * 0.5 ** 4) < 1e-12
    ok &= abs(plausibility(grammar_by_id("0000000"), table) - 0.54 * 0.5 ** 4) < 1e-12

    # Judgment accuracy against a hand count (ties incorrect).
    def rec(lp):
        return ScoreRecord("g", ("w",), (lp, -0.0))

    got = judge_pairs([(rec(-1.0), rec(-2.0)), (rec(-3.0), rec(-1.0)),
                       (rec(-1.0), rec(-1.0)), (rec(-0.5), rec(-4.0))])
    ok &= abs(got - 2 / 4) < 1e-12

    report(7, "perplexity, pearson, plausibility, judgment match recomputation", ok)


def test_criterion_8_pipeline_properties(tmp_path):
    start = time.monotonic()
    cfg = RunConfig(master_seed=11, ngram_order=3).scaled(0.1)
    ok = True
    for gid in ("0101101", "0000000"):
        ppls = _pipeline_one(gid, cfg, tmp_path, Lexicon.default())["ppls"]
        ok &= ppls["ShortTest"] <= ppls["MediumTest"] <= ppls["LongTest"]
    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 300.0

    # Synthetic TA recovery: perfect linear relation between PPL and
    # plausibility must reproduce the directly computed correlation.
    table = TypologyTable.default()
    grammars = enumerate_grammars()
    ppls = {g.params: 120.0 - 40.0 * plausibility(g, table) for g in grammars}
    r, p = ta_score(ppls, table)
    direct_r, direct_p = pearson(
        [ppls[g.params] for g in grammars],
        [plausibility(g, table) for g in grammars],
    )
    ok = ok and abs(r - direct_r) < 1e-12 and abs(p - direct_p) < 1e-12 and r < -0.999999

    report(8, "trigram pipeline: Short<=Medium<=Long PPL in < 5 min; TA recovery to 1e-12", ok)


def test_criterion_9_determinism(tmp_path):
    args = ["pipeline", "--params", "0101101", "0000000",
            "--seed", "11", "--scale", "0.05"]
    dirs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(args + ["--out-dir", str(out)]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    ok = names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], [name], shallow=False)
        ok &= match == [name] and not mismatch and not errors
    report(9, "two pipeline runs with identical config produce byte-identical artifacts", ok)
