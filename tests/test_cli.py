"""Command-line interface: configs, subcommands, error reporting."""

import argparse
import csv
import json
import os
import re
import shlex
import threading
import time
from dataclasses import fields
from pathlib import Path

import pytest

from alforge import cli
from alforge.cli import RunConfig, build_arg_parser, load_config_file, main
from alforge.corpus import DEFAULT_WORDS, load_sentences, write_jsonl
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
from alforge.parser import RuleTable
from alforge.templates import load_templates


TYPOLOGY = TypologyTable.default().to_json()


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

    # 1e306 is finite, but 1000 * 1e306 is not
    @pytest.mark.parametrize("factor", [0, -2, float("nan"), float("inf"), 1e306])
    def test_scale_must_be_positive(self, factor):
        named = re.escape(str(factor))
        with pytest.raises(ValueError, match=f"scale must be > 0.*, got {named}$"):
            RunConfig().scaled(factor)

    def test_scaled_count_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="keep every count finite, got 0.1$"):
            RunConfig(train_per_length=10**400).scaled(0.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(train_per_length=-1)

    @pytest.mark.parametrize("bad", [
        {"ngram_order": 0}, {"ngram_k": 0.0}, {"ngram_k": -0.1}, {"ngram_k": float("nan")},
        {"ngram_k": float("inf")},
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

    def test_config_file_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ntrain_per_length = x\n")
        with pytest.raises(ValueError, match="bad config line 2: 'train_per_length = x'"):
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

    def test_readme_library_example_runs(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

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
        assert err == ("error: ValueError: 0101101 ShortTrain: length 3 has 152 distinct "
                       "sentences to draw from, 1000 requested\n")

    def test_pipeline_sampling_failure_names_grammar_and_split(self, capsys, tmp_path):
        # ShortTrain takes 150 of the 152 sentences of NP SUBJ VI
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--seed", "1",
                           "--scale", "0.15", "--out-dir", str(tmp_path / "d"))
        assert code == 1
        assert err == ("error: ValueError: 0101101 ShortTest: length 3 has 2 distinct "
                       "sentences to draw from, 15 requested\n")

    def test_test_lexicon_failure_names_grammar(self, capsys, tmp_path):
        # ShortTrain at this scale uses no word of VCOMP or COMP, so the test
        # lexicon, restricted to ShortTrain's vocabulary, has none either
        code, _, err = run(capsys, "pipeline", "--params", "0000000", "--scale", "0.02",
                           "--seed", "3", "--out-dir", str(tmp_path / "d"))
        assert code == 1
        assert err.startswith("error: ValueError: 0000000 ")
        assert "['VCOMP', 'COMP']" in err

    def test_gen_dataset_bad_lexicon_fails_before_writing(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(json.dumps({**DEFAULT_WORDS, "SUBJ": "ga"}))
        out = tmp_path / "d"
        code, _, err = run(capsys, "gen-dataset", "--params", "0101101", "--scale", "0.05",
                           "--seed", "3", "--lexicon-path", str(lexicon), "--out-dir", str(out))
        assert code == 1
        assert err.startswith("error: ValueError: lexicon class SUBJ must be a list of words")
        assert not out.exists()

    def test_pipeline_bad_lexicon_fails_before_writing(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(json.dumps({**DEFAULT_WORDS, "SUBJ": "ga"}))
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--scale", "0.05",
                           "--seed", "3", "--lexicon-path", str(lexicon), "--out-dir", str(out))
        assert code == 1
        assert err.startswith("error: ValueError: lexicon class SUBJ must be a list of words")
        assert not out.exists()

    def test_pipeline_boundary_word_fails_before_writing(self, capsys, tmp_path):
        # an n-gram boundary symbol as a word used to fail only in ngram_train,
        # after the grammar's dataset files were written
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(json.dumps({**DEFAULT_WORDS, "VI": [*DEFAULT_WORDS["VI"][:-1], "</s>"]}))
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--scale", "0.05",
                           "--seed", "3", "--lexicon-path", str(lexicon), "--out-dir", str(out))
        assert code == 1
        assert err == "error: ValueError: word '</s>' of VI is an n-gram boundary symbol\n"
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        ([], "typology file must hold one JSON object"),
        ({"base_order_freq": TYPOLOGY["base_order_freq"]},
         "typology file needs a param_freq object"),
        ({**TYPOLOGY, "param_freq": {**TYPOLOGY["param_freq"], "COMP": "ab"}},
         "param_freq[COMP] must be a list of numbers"),
        ({**TYPOLOGY, "base_order_freq": {**TYPOLOGY["base_order_freq"], "SOV": "0.54"}},
         "base_order_freq[SOV] must be a number"),
    ])
    def test_pipeline_bad_typology_fails_before_writing(self, capsys, tmp_path, data, message):
        typology = tmp_path / "typology.json"
        typology.write_text(json.dumps(data))
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--scale", "0.05",
                           "--typology-path", str(typology), "--out-dir", str(out))
        assert code == 1
        assert err.startswith(f"error: ValueError: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, text, column", [
        ("gen-dataset", "--lexicon-path", '{"NP": [', 9),
        ("pipeline", "--typology-path", "base_order_freq = 1\n", 1),
    ], ids=["lexicon", "typology"])
    def test_non_json_file_named(self, capsys, tmp_path, command, flag, text, column):
        path = tmp_path / "table.json"
        path.write_text(text)
        out = tmp_path / "d"
        code, _, err = run(capsys, command, "--params", "0101101", "--scale", "0.05",
                           flag, str(path), "--out-dir", str(out))
        assert code == 1
        assert err == f"error: ValueError: {path}, line 1: Expecting value (column {column})\n"
        assert not out.exists()

    def test_augment_long_rejects_non_sentence_template(self, capsys, tmp_path):
        # The Long step trusts its sources to derive S, so the command
        # checks a templates file before sampling from it.
        templates = tmp_path / "templates.txt"
        templates.write_text("NP SUBJ VI\nNP SUBJ VT\nNP SUBJ NP OBJ VT\n")
        out = tmp_path / "long.txt"
        code, _, err = run(capsys, "augment-long", "--params", "0101101",
                           "--templates", str(templates), "--out", str(out))
        assert code == 1
        assert err == "error: ValueError: template does not derive S under 0101101: NP SUBJ VT\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("nan_side", ["good", "bad"])
    def test_judge_rejects_nan_logprob(self, capsys, tmp_path, nan_side):
        # json reads NaN, and NaN > 0 is false: a corrupt score must fail
        # the record check, not count as a loss on either side.
        for side in ("good", "bad"):
            logprobs = [float("nan") if side == nan_side else -3.0, -1.0]
            write_jsonl(tmp_path / f"{side}.jsonl", [json.dumps(
                {"grammar_id": "0101101", "tokens": ["Kim"], "logprobs": logprobs}, sort_keys=True)])
        code, stdout, err = run(capsys, "judge", "--good", str(tmp_path / "good.jsonl"),
                                "--bad", str(tmp_path / "bad.jsonl"))
        assert code == 1
        assert err.startswith("error: ValueError: ") and "logprobs must be <= 0" in err, err
        assert stdout == ""

    @pytest.mark.parametrize("argv, record, message", [
        (["score", "--train", "{bad}", "--input", "{bad}", "--out", "{out}"],
         {"grammar_id": "0101101", "split": "ShortTrain", "tokens": "ab", "classes": "NP"},
         "record field 'tokens' is malformed: 'ab'"),
        (["gen-pairs", "--params", "0101101", "--kind", "case", "--source", "{bad}",
          "--out", "{out}"],
         {"grammar_id": "0101101", "split": "ShortTrain", "tokens": ["Kim", "ran"],
          "classes": ["NP", "VERB"]},
         "record field 'classes' has unknown classes: ['VERB']"),
        (["judge", "--good", "{bad}", "--bad", "{bad}"], {},
         "record has no field 'grammar_id'"),
        (["judge", "--good", "{bad}", "--bad", "{bad}"],
         {"grammar_id": "0101101", "tokens": ["Kim"], "logprobs": ["-1.0", "-2.0"]},
         "record field 'logprobs' is malformed"),
    ], ids=["score", "gen-pairs", "judge-empty", "judge-logprobs"])
    def test_malformed_record_fails_before_writing(self, capsys, tmp_path, argv, record, message):
        bad, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
        write_jsonl(bad, [json.dumps(record, sort_keys=True)])
        code, stdout, err = run(capsys, *(a.format(bad=bad, out=out) for a in argv))
        assert code == 1
        assert err.startswith(f"error: ValueError: {bad}, line 1: ") and message in err, err
        assert stdout == ""
        assert not out.exists()


class TestWritesAfterDrawing:
    """`pipeline` writes a grammar's files only after all of its sets are
    drawn and scored, and moves the run into its out-dir only once every
    grammar has succeeded: a failed run leaves the out-dir as it was, and
    reports the first failing grammar in order, as the serial run does."""

    THREADS = "1"
    ARGS = ("--scale", "0.02", "--seed", "45")
    NO_VT = "error: ValueError: 0001000 VerbType: no source sentence has a VT to perturb\n"

    def pipeline(self, capsys, *argv):
        return run(capsys, "pipeline", *argv, "--threads", self.THREADS)

    def test_pair_precheck_leaves_no_out_dir(self, capsys, tmp_path):
        # 0001000's MediumTest holds only VI sentences at this config
        out = tmp_path / "d"
        code, _, err = self.pipeline(capsys, "--params", "0001000", *self.ARGS,
                                     "--out-dir", str(out))
        assert (code, err) == (1, self.NO_VT)
        assert not out.exists()

    def test_failing_grammar_leaves_none_of_its_files(self, capsys, tmp_path):
        # 0101101 succeeds, but its files are never moved into the out-dir
        out = tmp_path / "d"
        out.mkdir()
        code, _, err = self.pipeline(capsys, "--params", "0101101", "0001000", *self.ARGS,
                                     "--out-dir", str(out))
        assert (code, err) == (1, self.NO_VT)
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert not any(out.iterdir())

    def test_default_config_leaves_no_out_dir(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, err = self.pipeline(capsys, "--params", "0101101", "--seed", "1",
                                     "--out-dir", str(out))
        assert code == 1
        assert err == ("error: ValueError: 0101101 ShortTrain: length 3 has 152 distinct "
                       "sentences to draw from, 1000 requested\n")
        assert not out.exists()

    def test_scoring_precedes_writing(self, capsys, tmp_path, monkeypatch):
        def judge_pairs(pairs):
            raise RuntimeError("judging failed")

        monkeypatch.setattr(cli, "judge_pairs", judge_pairs)
        out = tmp_path / "d"
        code, _, err = self.pipeline(capsys, "--params", "0101101", "--scale", "0.05",
                                     "--seed", "3", "--out-dir", str(out))
        assert (code, err) == (1, "error: RuntimeError: judging failed\n")
        assert not out.exists()

    def test_first_failing_grammar_in_order_is_reported(self, capsys, tmp_path, monkeypatch):
        # 0000000 fails first in time, 0101101 first in order
        def build_dataset(g, *args):
            if g.params == "0101101":
                time.sleep(0.3)
            raise ValueError(f"{g.params} failed")

        monkeypatch.setattr(cli, "build_dataset", build_dataset)
        code, _, err = self.pipeline(capsys, "--params", "0101101", "0000000", *self.ARGS,
                                     "--out-dir", str(tmp_path / "d"))
        assert (code, err) == (1, "error: ValueError: 0101101 failed\n")

    def test_failure_stops_the_run(self, capsys, tmp_path, monkeypatch):
        # After the first grammar fails no further grammar starts: the serial
        # run stops there, and in the pool ``one``'s guard skips every grammar
        # after a failed one.  The pool's other worker finishes the grammar it
        # holds.
        params = ["0001000", "0101101", "0000000", "1111111", "0011010", "1001011"]
        started = []
        pipeline_one = cli._pipeline_one

        def record(params, *args):
            started.append(params)
            if params == "0001000":
                raise ValueError("0001000 failed")
            return pipeline_one(params, *args)

        monkeypatch.setattr(cli, "_pipeline_one", record)
        code, _, err = self.pipeline(capsys, "--params", *params, *self.ARGS,
                                     "--out-dir", str(tmp_path / "d"))
        assert (code, err) == (1, "error: ValueError: 0001000 failed\n")
        if self.THREADS == "1":
            assert started == params[:1]
        else:  # only the grammar the other worker took alongside it may start
            assert "0001000" in started and set(started) <= set(params[:2])
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_run_leaves_no_parents(self, capsys, tmp_path):
        out = tmp_path / "new" / "a" / "d"
        code, _, err = self.pipeline(capsys, "--params", "0101101", "0001000", *self.ARGS,
                                     "--out-dir", str(out))
        assert (code, err) == (1, self.NO_VT)
        assert [p.name for p in tmp_path.iterdir()] == []


class TestWritesAfterDrawingInPool(TestWritesAfterDrawing):
    """The same, with a pool of two worker processes; a one-grammar run
    stays in-process."""

    THREADS = "2"

    def test_dead_worker_fails_the_run(self, capsys, tmp_path, monkeypatch):
        parent = os.getpid()

        def build_dataset(g, *args):
            assert os.getpid() != parent
            os._exit(3)

        monkeypatch.setattr(cli, "build_dataset", build_dataset)
        out = tmp_path / "d"
        ran = []
        runner = threading.Thread(daemon=True, target=lambda: ran.append(self.pipeline(
            capsys, "--params", "0101101", "0000000", *self.ARGS, "--out-dir", str(out))))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "the run hangs on a dead worker"
        code, _, err = ran[0]
        assert code == 1
        assert err.startswith("error: BrokenProcessPool: ")
        assert [p.name for p in tmp_path.iterdir()] == []


class TestWorkerCount:
    """The outputs do not depend on the number of worker processes."""

    PARAMS = ("0101101", "0000000", "1111111", "0100101")  # 0000000 and 1111111 set a policy

    def test_out_dir_and_stdout_identical(self, capsys, tmp_path, monkeypatch):
        # A rule table belongs to one thread: every intern goes through
        # `RuleTable.code`, which must run on a process's main thread, in
        # this process or in a forked worker, never on a waiting thread.
        intern = RuleTable.code

        def main_thread_code(table, cat):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"interned off the main thread: {threading.current_thread().name}")
            return intern(table, cat)

        monkeypatch.setattr(RuleTable, "code", main_thread_code)
        argv = ("pipeline", "--params", *self.PARAMS, "--scale", "0.05", "--seed", "7")
        code, serial, err = run(capsys, *argv, "--threads", "1", "--out-dir", str(tmp_path / "1"))
        assert code == 0, err
        # the pool's grammars are still handed out, one call each, here
        calls = []
        pipeline_one = cli._pipeline_one

        def record(params, *args):
            calls.append((params, os.getpid()))
            return pipeline_one(params, *args)

        monkeypatch.setattr(cli, "_pipeline_one", record)
        code, pooled, err = run(capsys, *argv, "--threads", "2", "--out-dir", str(tmp_path / "2"))
        assert code == 0, err
        assert sorted(calls) == sorted((params, os.getpid()) for params in self.PARAMS)
        assert pooled == serial
        files = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
        assert len(files) == 13 * len(self.PARAMS) + 2
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_below_one_fails_before_writing(self, capsys, tmp_path, threads):
        out = tmp_path / "d"
        code, _, err = run(capsys, "pipeline", "--params", "0101101", "--scale", "0.05",
                           "--seed", "3", "--threads", threads, "--out-dir", str(out))
        assert (code, err) == (1, f"error: ValueError: threads must be >= 1, got {threads}\n")
        assert not out.exists()


class TestOutDir:
    """A finished run is staged inside an existing out-dir and moved into it
    file by file; a missing out-dir, with its missing parents, is staged
    beside the first of them and renamed into place."""

    ARGV = ("pipeline", "--params", "0101101", "--scale", "0.05", "--seed", "3")

    def test_missing_parents_made_on_success(self, capsys, tmp_path):
        out = tmp_path / "new" / "a" / "d"
        code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        assert code == 0, err
        assert len(list(out.iterdir())) == 15
        assert [p.name for p in tmp_path.iterdir()] == ["new"]
        (tmp_path / "ref").mkdir()
        mode = (tmp_path / "ref").stat().st_mode
        assert all(d.stat().st_mode == mode for d in (out, out.parent, out.parent.parent))

    def test_existing_out_dir_holds_the_stage(self, capsys, tmp_path, monkeypatch):
        dirs = []
        pipeline_one = cli._pipeline_one

        def record(params, cfg, out_dir, *args):
            dirs.append(out_dir)
            return pipeline_one(params, cfg, out_dir, *args)

        monkeypatch.setattr(cli, "_pipeline_one", record)
        out = tmp_path / "d"
        out.mkdir()
        code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        assert code == 0, err
        assert [d.parent for d in dirs] == [out.resolve()]
        assert not dirs[0].exists()
        assert len(list(out.iterdir())) == 15

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes to read-only directories")
    def test_read_only_parent(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        tmp_path.chmod(0o555)
        try:
            code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        finally:
            tmp_path.chmod(0o755)
        assert code == 0, err
        assert len(list(out.iterdir())) == 15

    def test_empty_out_dir_keeps_its_mode(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir(mode=0o700)
        code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        assert code == 0, err
        assert out.stat().st_mode & 0o777 == 0o700
        assert len(list(out.iterdir())) == 15
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_files_replaced_and_others_kept(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        (out / "report.csv").write_text("old")
        code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        assert code == 0, err
        assert (out / "notes.txt").read_text() == "mine"
        assert (out / "report.csv").read_text().startswith("grammar_id,")
        assert len(list(out.iterdir())) == 16
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_failed_run_leaves_files(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "report.csv").write_text("old")
        # the default counts exceed what length 3 can hold
        code, _, _ = run(capsys, "pipeline", "--params", "0101101", "--out-dir", str(out))
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["report.csv"]
        assert (out / "report.csv").read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_file_as_out_dir_fails_before_running(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.write_text("a file")
        code, _, err = run(capsys, *self.ARGV, "--out-dir", str(out))
        assert (code, err) == (1, f"error: NotADirectoryError: out-dir is not a directory: {out}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]


class TestOutDirInPool(TestOutDir):
    """The same, with the grammar handed to a pool of two forked worker
    processes.  The run caps the pool at one worker a grammar, so the size is
    set here.  The workers are forked while the stage is open and exit before
    the report is written into it: a worker that removed the stage would fail
    the run, and the listings above show that no ``.stage.*`` entry is left
    after a run that succeeds or fails."""

    ARGV = (*TestOutDir.ARGV, "--threads", "2")

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        run_grammars = cli._run_grammars
        monkeypatch.setattr(cli, "_run_grammars", lambda *args: run_grammars(*args[:-1], 2))


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
        assert err == "error: ValueError: 0000000 CaseType: source sentences of grammar 0101101\n"
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
