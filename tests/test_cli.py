"""Command-line interface: configs, subcommands, error reporting."""

import argparse
import csv
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from alforge.cli import RunConfig, build_arg_parser, load_config_file, main
from alforge.corpus import load_sentences
from alforge.evaluation import (
    ScoreRecord,
    TypologyTable,
    judge_pairs,
    load_scores,
    perplexity,
    plausibility,
    save_scores,
    ta_score,
)
from alforge.grammars import enumerate_grammars
from alforge.templates import load_templates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_scaled(self):
        cfg = RunConfig(train_per_length=1000, test_per_length=100, pair_n=100)
        small = cfg.scaled(0.1)
        assert small.train_per_length == 100
        assert small.test_per_length == 10
        assert small.pair_n == 10
        assert small.ngram_order == cfg.ngram_order

    def test_scaled_floor_is_one(self):
        assert RunConfig(pair_n=3).scaled(0.01).pair_n == 1

    @pytest.mark.parametrize("factor", [0, -2, float("nan")])
    def test_scale_must_be_positive(self, factor):
        with pytest.raises(ValueError, match="scale must be > 0"):
            RunConfig().scaled(factor)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(train_per_length=-1)

    @pytest.mark.parametrize("bad", [
        {"ngram_order": 0}, {"ngram_k": 0.0}, {"ngram_k": -0.1}, {"ngram_k": float("nan")},
    ])
    def test_ngram_settings_rejected(self, bad):
        with pytest.raises(ValueError, match="ngram_"):
            RunConfig(**bad)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nmaster_seed = 9\nngram_k = 0.5\nout_dir = somewhere\n")
        assert load_config_file(path) == {
            "master_seed": 9, "ngram_k": 0.5, "out_dir": "somewhere",
        }

    def test_config_file_bad_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(path)

    def test_config_file_threads_rejected(self, tmp_path):
        # Grammars run one after another; there is no worker count to set.
        path = tmp_path / "run.cfg"
        path.write_text("threads = 2\n")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(path)

    def test_config_file_max_len_rejected(self, tmp_path):
        # Splits always enumerate to the end of the Medium band.
        path = tmp_path / "run.cfg"
        path.write_text("max_len = 10\n")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(path)


class TestOptionSurface:
    @pytest.mark.parametrize("argv", [
        ["gen-targeted", "--params", "0101101", "--kind", "recursive", "--out-dir", "x"],
        ["gen-pairs", "--params", "0101101", "--kind", "case", "--source", "s.jsonl",
         "--ngram-k", "0.5"],
        ["ta-corr", "--scores", "s.jsonl", "--seed", "3"],
        ["gen-dataset", "--params", "0101101", "--pair-n", "5"],
        ["pipeline", "--params", "0101101", "--max-len", "10"],
        ["score", "--train", "t.jsonl", "--input", "i.jsonl", "--out", "o.jsonl",
         "--model", "ngram"],
        ["augment-long", "--params", "0101101", "--templates", "t.txt", "--per-length", "20"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
    def test_unread_flag_rejected(self, capsys, argv):
        # Each subcommand takes only the options its handler reads.
        with pytest.raises(SystemExit) as exc:
            build_arg_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(cmd, comments=True) for cmd in block.replace("\\\n", " ").splitlines()]
        commands = [words for words in lines if words and words[0] == "alforge"]
        parser = build_arg_parser()
        for words in commands:
            parser.parse_args(words[1:])
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert {words[1] for words in commands} == set(sub.choices)

    def test_readme_option_table(self):
        # One row per subcommand with run options, listing exactly its
        # RunConfig flags and --scale; pipeline's row says "all of the above".
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| `([^`|]*)` \|$", text, re.M))
        names = {f.name for f in fields(RunConfig)} | {"scale"}
        parser = build_arg_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        run_flags = {
            name: {a.option_strings[0] for a in p._actions if a.dest in names}
            for name, p in sub.choices.items()
        }
        assert set(rows) == {name for name, flags in run_flags.items() if flags} - {"pipeline"}
        for name, cell in rows.items():
            assert set(cell.split()) == run_flags[name], name
        assert "\n| `pipeline` | all of the above" in text
        assert run_flags["pipeline"] == set().union(*(run_flags[name] for name in rows))

    def test_bad_ngram_order_fails_before_writing(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "0000000",
                           "--scale", "0.1", "--seed", "1", "--ngram-order", "0",
                           "--out-dir", str(out))
        assert code == 1
        assert err.startswith("error: ValueError: ngram_order must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        "--train-per-length", "--test-per-length", "--long-per-length",
        "--long-templates-per-length", "--targeted-n", "--pair-n",
    ])
    def test_zero_count_fails_before_writing(self, capsys, tmp_path, flag):
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--scale", "0.05",
                           "--seed", "3", flag, "0", "--out-dir", str(out))
        assert code == 1
        assert err.startswith("error: ValueError: counts must be >= 1")
        assert not out.exists()


class TestSubcommands:
    def test_list_grammars(self, capsys):
        code, out, _ = run(capsys, "list-grammars")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 96
        assert any(line.startswith("0101101 SVO") for line in lines)

    def test_gen_grammar(self, capsys):
        code, out, _ = run(capsys, "gen-grammar", "--params", "0101101")
        assert code == 0
        assert "(S\\NP_SUBJ)/NP_OBJ" in out

    def test_enum_templates(self, capsys):
        code, out, _ = run(capsys, "enum-templates", "--params", "0101101", "--max-len", "4")
        assert code == 0
        assert "NP SUBJ VI" in out

    def test_unknown_grammar_errors(self, capsys):
        code, out, err = run(capsys, "gen-grammar", "--params", "xyz")
        assert code == 1
        assert err.startswith("error: ValueError:")
        assert not out

    def test_gen_dataset_impossible_count(self, capsys, tmp_path):
        # the default 1000 sentences a length exceed what length 3 can hold
        code, _, err = run(capsys, "gen-dataset", "--params", "0101101",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ValueError: length 3 has")

    def test_ta_corr_missing_grammars(self, capsys, tmp_path):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({
            "grammar_id": "0101101", "tokens": ["Kim"], "logprobs": [-1.0, -1.0],
        }) + "\n")
        code, _, err = run(capsys, "ta-corr", "--scores", str(scores))
        assert code == 1
        assert "missing grammars" in err
        assert "0000000" in err

    def test_ta_corr_report(self, capsys, tmp_path):
        # Synthetic scores for all 96 grammars, split over two files: one
        # report row per grammar, then a summary row with ta_score's r and p.
        grammars = enumerate_grammars()
        records = [
            ScoreRecord(g.params, ("Kim",) * (1 + i % 3),
                        tuple(-(1.0 + (i * 7 % 11) / 10 + j / 5) for j in range(2 + i % 3)))
            for i, g in enumerate(grammars)
        ]
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        save_scores(records[:40], paths[0])
        save_scores(records[40:], paths[1])
        out = tmp_path / "ta.csv"
        code, stdout, err = run(capsys, "ta-corr", "--scores", *map(str, paths),
                                "--split", "MediumTest", "--out", str(out))
        assert code == 0, err
        table = TypologyTable.default()
        ppls = {r.grammar_id: perplexity([r]) for r in records}
        r, p = ta_score(ppls, table)
        assert stdout == f"ta={100 * r:.1f} p={p:.4g} typology={table.provenance_hash()}\n"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 97
        for g, row in zip(grammars, rows):
            assert row == {
                "grammar_id": g.params, "base_order": g.base_order, "split": "MediumTest",
                "ppl": repr(ppls[g.params]), "plausibility": repr(plausibility(g, table)),
                "r": "", "p_value": "", "typology_hash": "",
            }
        assert rows[-1] == {
            "grammar_id": "ALL", "base_order": "", "split": "MediumTest", "ppl": "",
            "plausibility": "", "r": repr(r), "p_value": repr(p),
            "typology_hash": table.provenance_hash(),
        }

    def test_judge(self, capsys, tmp_path):
        good = [ScoreRecord("0101101", ("Kim", "ran"), (-1.0, -2.0, -0.5)),
                ScoreRecord("0101101", ("Kim", "sang"), (-3.0, -2.0, -0.5)),
                ScoreRecord("0101101", ("Tom", "ran"), (-1.0, -1.0, -0.5))]
        bad = [ScoreRecord("0101101", ("ga", "ran"), (-2.0, -2.0, -0.5)),
               ScoreRecord("0101101", ("ga", "sang"), (-1.0, -2.0, -0.5)),
               ScoreRecord("0101101", ("o", "ran"), (-4.0, -1.0, -0.5))]
        save_scores(good, tmp_path / "good.jsonl")
        save_scores(bad, tmp_path / "bad.jsonl")
        code, stdout, err = run(capsys, "judge", "--good", str(tmp_path / "good.jsonl"),
                                "--bad", str(tmp_path / "bad.jsonl"))
        assert code == 0, err
        acc = judge_pairs(list(zip(good, bad)))
        assert acc == pytest.approx(2 / 3)
        assert stdout == f"accuracy={acc:.4f} pairs=3\n"


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    code = main([
        "pipeline", "--params", "0101101", "--seed", "3",
        "--scale", "0.05", "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestPipeline:
    def test_artifacts(self, pipeline_out):
        names = {p.name for p in pipeline_out.iterdir()}
        for split in ("ShortTrain", "ShortTest", "MediumTest", "LongTest",
                      "Recursive", "Embedded"):
            assert f"0101101_{split}.jsonl" in names
        assert "report.csv" in names
        assert "judgments.json" in names

    def test_report_ppls_match_scores(self, pipeline_out):
        with open(pipeline_out / "report.csv", newline="") as fh:
            rows = {r["split"]: r for r in csv.DictReader(fh)}
        records = load_scores(pipeline_out / "0101101_ShortTest_scores.jsonl")
        assert float(rows["ShortTest"]["ppl"]) == pytest.approx(perplexity(records), rel=0, abs=0)

    def test_judgments_range(self, pipeline_out):
        data = json.loads((pipeline_out / "judgments.json").read_text())
        for acc in data["0101101"].values():
            assert 0.0 <= acc <= 1.0

    def test_train_test_disjoint(self, pipeline_out):
        train = load_sentences(pipeline_out / "0101101_ShortTrain.jsonl")
        test = load_sentences(pipeline_out / "0101101_ShortTest.jsonl")
        assert not {s.tokens for s in train} & {s.tokens for s in test}

    def test_subcommands_reproduce_pipeline_files(self, capsys, tmp_path, pipeline_out):
        # The single-step subcommands share the pipeline's generators and
        # writers, so with the same seed and scale they rebuild its files.
        opts = ("--seed", "3", "--scale", "0.05")
        made = tmp_path / "d"
        steps = [
            ("gen-dataset", "--params", "0101101", *opts, "--out-dir", str(made)),
            ("gen-targeted", "--params", "0101101", "--kind", "recursive", *opts,
             "--out", str(made / "0101101_Recursive.jsonl")),
            ("gen-targeted", "--params", "0101101", "--kind", "embedded", *opts,
             "--out", str(made / "0101101_Embedded.jsonl")),
            ("gen-pairs", "--params", "0101101", "--kind", "case", *opts,
             "--source", str(pipeline_out / "0101101_MediumTest.jsonl"),
             "--out", str(made / "0101101_CaseType_pairs.jsonl")),
            ("gen-pairs", "--params", "0101101", "--kind", "verb", *opts,
             "--source", str(pipeline_out / "0101101_MediumTest.jsonl"),
             "--out", str(made / "0101101_VerbType_pairs.jsonl")),
            ("score", "--train", str(pipeline_out / "0101101_ShortTrain.jsonl"),
             "--input", str(pipeline_out / "0101101_LongTest.jsonl"),
             "--out", str(made / "0101101_LongTest_scores.jsonl")),
        ]
        for argv in steps:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        names = [f"0101101_{split}.jsonl"
                 for split in ("ShortTrain", "ShortTest", "MediumTest", "LongTest")]
        names += ["0101101_Recursive.jsonl", "0101101_Embedded.jsonl",
                  "0101101_CaseType_pairs.jsonl", "0101101_VerbType_pairs.jsonl",
                  "0101101_LongTest_scores.jsonl"]
        assert sorted(p.name for p in made.iterdir()) == sorted(names)
        for name in names:
            assert (made / name).read_bytes() == (pipeline_out / name).read_bytes(), name

    def test_gen_pairs_rejects_foreign_source(self, capsys, tmp_path, pipeline_out):
        # 0101101's sentences are no evidence for 0000000's language.
        out = tmp_path / "pairs.jsonl"
        code, _, err = run(capsys, "gen-pairs", "--params", "0000000", "--kind", "case",
                           "--seed", "3", "--scale", "0.05", "--out", str(out),
                           "--source", str(pipeline_out / "0101101_MediumTest.jsonl"))
        assert code == 1
        assert err.startswith("error: ValueError: source sentences of grammar 0101101")
        assert not out.exists()

    def test_augment_long_is_the_pipeline_long_step(self, capsys, tmp_path, pipeline_out):
        # Given the pipeline's own templates and seed, augment-long writes
        # the Long templates that the pipeline sampled its LongTest from.
        short = tmp_path / "templates.txt"
        long = tmp_path / "long.txt"
        for argv in (
            ("enum-templates", "--params", "0101101", "--max-len", "10", "--out", str(short)),
            ("augment-long", "--params", "0101101", "--templates", str(short),
             "--seed", "3", "--out", str(long)),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        out = load_templates(long)
        assert sorted(len(t) for t in out) == [n for n in range(11, 21) for _ in range(20)]
        used = {s.classes for s in load_sentences(pipeline_out / "0101101_LongTest.jsonl")}
        assert used <= set(out)

    def test_alias_runs_once(self, capsys, tmp_path):
        # 0110000 is an alias of 0100000: one grammar, one run.
        out = tmp_path / "d"
        code, stdout, err = run(capsys, "pipeline", "--params", "0100000", "0110000",
                                "--seed", "3", "--scale", "0.05", "--out-dir", str(out))
        assert code == 0, err
        assert len(stdout.splitlines()) == 1
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",", 1)[0] for row in rows] == ["0100000"] * 5

    def test_gen_dataset_alias_runs_once(self, capsys, tmp_path):
        # gen-dataset merges aliases the same way: 0100000's four splits,
        # written once and printed under the canonical id.
        out = tmp_path / "d"
        code, stdout, err = run(capsys, "gen-dataset", "--params", "0100000", "0110000",
                                "--seed", "3", "--scale", "0.05", "--out-dir", str(out))
        assert code == 0, err
        lines = stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["0100000"] * 4
        assert len(list(out.iterdir())) == 4

    def test_config_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("test_per_length = 100000\n")
        code, out, _ = run(
            capsys, "gen-dataset", "--params", "0101101",
            "--config", str(cfg), "--test-per-length", "100",
            "--scale", "0.02", "--out-dir", str(tmp_path / "d"),
        )
        # 2000 test sentences a length alone exceed what length 3 can hold;
        # the flag must win.
        assert code == 0
        assert "MediumTest" in out
