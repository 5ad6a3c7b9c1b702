"""Command-line interface: grammar inspection, template enumeration, corpus
generation, baseline scoring and the evaluation metrics, plus a `pipeline`
command chaining everything for a set of grammars.

`RunConfig` is the one table of run options.  Its fields give the flag names
(`master_seed` is `--seed`), the flag types and the config-file value types,
and each subcommand offers flags only for the fields its handler reads, plus
`--config` and, where it reads a corpus count, `--scale`.  All randomness is
derived from --seed; identical config and seed produce byte-identical
artifacts.  `pipeline` writes a grammar's files only once all of its sets
are drawn and scored.  It runs its grammars one after another in-process,
or, with `--threads N` above 1, in a pool of min(N, grammars) forked worker
processes; the artifacts and stdout do not depend on the worker count.  The
run is staged in a temporary directory inside the out-dir, or inside its
first existing ancestor, and each entry of the stage (the files, or the first
missing directory) is renamed into place only when every grammar has
succeeded, so a failed run leaves the file system as it was.

Each pipeline step is defined once (`build_dataset`, `long_templates`,
`targeted_set`, `pair_set`, `report_row`, `summary_row`), and the
single-step subcommands run the same steps as `pipeline`.  `gen-dataset` and
`pipeline` merge aliases: each grammar runs once, under its canonical id.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .corpus import (
    LONG_BAND,
    MEDIUM_BAND,
    PAIR_KINDS,
    SHORT_BAND,
    TARGETED_KINDS,
    Lexicon,
    Sentence,
    derive_seed,
    gen_minimal_pairs,
    gen_targeted,
    load_sentences,
    sample_split,
    save_pairs,
    save_sentences,
    write_json,
)
from .evaluation import (
    ScoreRecord,
    TypologyTable,
    judge_pairs,
    load_scores,
    ngram_score,
    ngram_train,
    perplexity,
    plausibility,
    save_scores,
    ta_score,
    write_report,
)
from .grammars import Grammar, enumerate_grammars, grammar_by_id, grammar_to_text
from .parser import ChartParser
from .templates import (
    Template,
    enumerate_templates,
    is_grammatical,
    load_templates,
    sample_long_templates,
    save_templates,
)


@dataclass(frozen=True)
class RunConfig:
    """Run options of the corpus, scoring and pipeline subcommands.  Each
    field's default fixes its type on the command line and in config files;
    an empty path means the built-in lexicon or typology."""

    master_seed: int = 0
    out_dir: str = "out"
    lexicon_path: str = ""
    typology_path: str = ""
    train_per_length: int = 1000
    test_per_length: int = 100
    long_per_length: int = 50
    long_templates_per_length: int = 20
    targeted_n: int = 500
    pair_n: int = 100
    ngram_order: int = 3
    ngram_k: float = 0.1

    def __post_init__(self) -> None:
        if any(getattr(self, name) < 1 for name in (*_SCALED, "long_templates_per_length")):
            raise ValueError("counts must be >= 1")
        if self.ngram_order < 1:
            raise ValueError(f"ngram_order must be >= 1, got {self.ngram_order}")
        if not 0 < self.ngram_k < float("inf"):
            raise ValueError(f"ngram_k must be > 0 and finite, got {self.ngram_k}")

    def scaled(self, factor: float) -> "RunConfig":
        """The corpus counts in `_SCALED` multiplied by `factor` (> 0, with
        every product a finite float); each stays at least 1."""
        if 0 < factor < float("inf"):
            try:
                return replace(self, **{name: max(1, round(getattr(self, name) * factor))
                                        for name in _SCALED})
            except OverflowError:  # a product past the float range
                pass
        raise ValueError(f"scale must be > 0 and keep every count finite, got {factor}")


_SCALED = ("train_per_length", "test_per_length", "long_per_length", "targeted_n", "pair_n")
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Flat key=value config; '#' starts a comment line."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or key not in _FIELD_TYPES:
                raise ValueError(f"bad config line {lineno}: {line!r}")
            try:
                values[key] = _FIELD_TYPES[key](value)
            except ValueError as exc:
                raise ValueError(f"bad config line {lineno}: {line!r}: {exc}") from None
    return values


def _lexicon(cfg: RunConfig) -> Lexicon:
    if cfg.lexicon_path:
        return Lexicon.load(cfg.lexicon_path)
    return Lexicon.default()


def _typology(cfg: RunConfig) -> TypologyTable:
    if cfg.typology_path:
        return TypologyTable.load(cfg.typology_path)
    return TypologyTable.default()


def _build_config(args) -> RunConfig:
    """The config file, overridden by the flags given, then scaled."""
    values = load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None)
    cfg = RunConfig(**values)
    scale = getattr(args, "scale", None)
    return cfg if scale is None else cfg.scaled(scale)


# --- dataset generation -----------------------------------------------------


def long_templates(g: Grammar, cfg: RunConfig, templates, parser: ChartParser) -> list[Template]:
    """The Long step: ``cfg.long_templates_per_length`` extensions of
    ``templates`` at each length of ``LONG_BAND``, seeded from the run seed.
    Every template must derive S under ``g``, as ``enumerate_templates``
    output does; the sampler relies on it to skip parses."""
    return sample_long_templates(
        templates, g, cfg.long_templates_per_length, *LONG_BAND,
        seed=derive_seed(cfg.master_seed, g.params, "long-templates"), parser=parser,
    )


def targeted_set(
    g: Grammar, cfg: RunConfig, kind: str, lex: Lexicon, parser: ChartParser
) -> list[Sentence]:
    """The targeted step: ``cfg.targeted_n`` sentences of the ``kind``
    construction (Recursive or Embedded), seeded from the run seed."""
    seed = derive_seed(cfg.master_seed, g.params, f"targeted-{kind}")
    return gen_targeted(g, kind, lex, cfg.targeted_n, seed, parser=parser)


def pair_set(
    g: Grammar, cfg: RunConfig, kind: str, source, lex: Lexicon, parser: ChartParser
) -> list[tuple[Sentence, Sentence]]:
    """The pair step: ``cfg.pair_n`` ``kind`` minimal pairs perturbing
    ``source`` sentences, seeded from the run seed."""
    seed = derive_seed(cfg.master_seed, g.params, f"pairs-{kind}")
    return gen_minimal_pairs(g, kind, source, lex, cfg.pair_n, seed, parser=parser)


def build_dataset(
    g: Grammar, cfg: RunConfig, lex: Lexicon, parser: ChartParser
) -> dict[str, list[Sentence]]:
    """Short/Medium/Long splits for one grammar, by split name.  Only
    ShortTest shares lengths with ShortTrain, so only it avoids its sentences."""
    seed = cfg.master_seed
    templates = enumerate_templates(g, MEDIUM_BAND[1])

    train = sample_split(
        g, templates, lex, cfg.train_per_length, SHORT_BAND,
        derive_seed(seed, g.params, "train"), "ShortTrain",
    )
    try:
        test_lex = lex.restricted({w for s in train for w in s.tokens})
    except ValueError as exc:
        raise ValueError(f"{g.params} test lexicon from ShortTrain's vocabulary: {exc}") from None
    splits = {"ShortTrain": train}
    splits["ShortTest"] = sample_split(
        g, templates, test_lex, cfg.test_per_length, SHORT_BAND,
        derive_seed(seed, g.params, "short-test"), "ShortTest",
        avoid={tuple(s.tokens) for s in train},
    )
    splits["MediumTest"] = sample_split(
        g, templates, test_lex, cfg.test_per_length, MEDIUM_BAND,
        derive_seed(seed, g.params, "medium-test"), "MediumTest",
    )
    long_t = long_templates(g, cfg, templates, parser)
    splits["LongTest"] = sample_split(
        g, long_t, test_lex, cfg.long_per_length, LONG_BAND,
        derive_seed(seed, g.params, "long-test"), "LongTest",
    )
    return splits


def artifact_path(out_dir, params: str, name: str) -> Path:
    """The file of one grammar's artifact ``name``: a split or targeted set,
    ``<kind>_pairs`` or ``<split>_scores``."""
    return Path(out_dir) / f"{params}_{name}.jsonl"


def _save_sets(out_dir: Path, params: str, sets: dict[str, list]) -> dict[str, Path]:
    """Writes each of one grammar's sets to its `artifact_path`, making
    ``out_dir`` if missing, and returns the paths by artifact name: pairs for
    ``<kind>_pairs``, score records for ``<split>_scores``, else sentences."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, items in sets.items():
        paths[name] = artifact_path(out_dir, params, name)
        save = (save_pairs if name.endswith("_pairs")
                else save_scores if name.endswith("_scores") else save_sentences)
        save(items, paths[name])
    return paths


def _distinct_grammars(params) -> list[Grammar]:
    """The grammars named by ``params``, in order, each once: an alias and
    its canonical id name one grammar."""
    return list({g.params: g for g in map(grammar_by_id, params)}.values())


# --- report -----------------------------------------------------------------

SCORED_SPLITS = ("ShortTest", "MediumTest", "LongTest", *TARGETED_KINDS)  # the sets scored


def report_row(g: Grammar, split: str, ppl: float, table: TypologyTable) -> dict:
    """One `report.csv` row: a grammar's perplexity on a split."""
    return {"grammar_id": g.params, "base_order": g.base_order, "split": split,
            "ppl": repr(ppl), "plausibility": repr(plausibility(g, table))}


def summary_row(split: str, r: float, p: float, table: TypologyTable) -> dict:
    """The `report.csv` summary row: the TA correlation on a split."""
    return {"grammar_id": "ALL", "split": split, "r": repr(r), "p_value": repr(p),
            "typology_hash": table.provenance_hash()}


# --- subcommand handlers ----------------------------------------------------


def cmd_list_grammars(args) -> None:
    for g in enumerate_grammars():
        alias = f" aliases={','.join(g.aliases)}" if g.aliases else ""
        print(f"{g.params} {g.base_order}{alias}")


def cmd_gen_grammar(args) -> None:
    text = grammar_to_text(grammar_by_id(args.params))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


def cmd_enum_templates(args) -> None:
    g = grammar_by_id(args.params)
    templates = enumerate_templates(g, args.max_len)
    if args.out:
        save_templates(templates, args.out)
    else:
        for t in templates:
            print(" ".join(t))


def cmd_augment_long(args) -> None:
    g = grammar_by_id(args.params)
    templates = load_templates(args.templates)
    parser = ChartParser(g.policy)
    for t in templates:
        if not is_grammatical(t, g, parser):
            raise ValueError(f"template does not derive S under {g.params}: {' '.join(t)}")
    out = long_templates(g, _build_config(args), templates, parser)
    if args.out:
        save_templates(out, args.out)
    else:
        for t in out:
            print(" ".join(t))


def cmd_gen_dataset(args) -> None:
    cfg = _build_config(args)
    lex = _lexicon(cfg)
    for g in _distinct_grammars(args.params):
        splits = build_dataset(g, cfg, lex, ChartParser(g.policy))
        for name, path in sorted(_save_sets(Path(cfg.out_dir), g.params, splits).items()):
            print(f"{g.params} {name} {path}")


def cmd_gen_targeted(args) -> None:
    cfg = _build_config(args)
    g = grammar_by_id(args.params)
    kind = {"recursive": "Recursive", "embedded": "Embedded"}[args.kind]
    sentences = targeted_set(g, cfg, kind, _lexicon(cfg), ChartParser(g.policy))
    out = Path(args.out or artifact_path(".", g.params, kind))
    save_sentences(sentences, out)
    print(f"{g.params} {kind} {out}")


def cmd_gen_pairs(args) -> None:
    cfg = _build_config(args)
    g = grammar_by_id(args.params)
    kind = {"case": "CaseType", "verb": "VerbType"}[args.kind]
    source = load_sentences(args.source)
    pairs = pair_set(g, cfg, kind, source, _lexicon(cfg), ChartParser(g.policy))
    out = Path(args.out or artifact_path(".", g.params, f"{kind}_pairs"))
    save_pairs(pairs, out)
    print(f"{g.params} {kind} {out}")


def cmd_score(args) -> None:
    cfg = _build_config(args)
    model = ngram_train(load_sentences(args.train), cfg.ngram_order, cfg.ngram_k)
    records = ngram_score(model, load_sentences(args.input))
    save_scores(records, args.out)
    print(f"scored {len(records)} sentences -> {args.out}")


def _ppl_by_grammar(records) -> dict[str, float]:
    grouped: dict[str, list[ScoreRecord]] = {}
    for r in records:
        grouped.setdefault(r.grammar_id, []).append(r)
    return {gid: perplexity(rs) for gid, rs in grouped.items()}


def cmd_ta_corr(args) -> None:
    cfg = _build_config(args)
    table = _typology(cfg)
    records = []
    for path in args.scores:
        records.extend(load_scores(path))
    ppls = _ppl_by_grammar(records)
    r, p = ta_score(ppls, table)
    print(f"ta={100 * r:.1f} p={p:.4g} typology={table.provenance_hash()}")
    if args.out:
        rows = [report_row(g, args.split, ppls[g.params], table) for g in enumerate_grammars()]
        write_report(args.out, rows, summary_row(args.split, r, p, table))


def cmd_judge(args) -> None:
    good = load_scores(args.good)
    bad = load_scores(args.bad)
    if len(good) != len(bad):
        raise ValueError("pair score files differ in length")
    acc = judge_pairs(list(zip(good, bad)))
    print(f"accuracy={acc:.4f} pairs={len(good)}")


def _grammar_record(params: str, cfg: RunConfig, out_dir: Path, lex: Lexicon) -> dict:
    """Splits, targeted sets, minimal pairs and n-gram scores for one grammar,
    all drawn and scored before any is written to ``out_dir``; returns its id,
    perplexities and pair accuracies as plain data.  One lexicon and one
    parser serve all."""
    g = grammar_by_id(params)
    parser = ChartParser(g.policy)
    sets = build_dataset(g, cfg, lex, parser)
    for kind in TARGETED_KINDS:
        sets[kind] = targeted_set(g, cfg, kind, lex, parser)
    for kind in PAIR_KINDS:
        sets[f"{kind}_pairs"] = pair_set(g, cfg, kind, sets["MediumTest"], lex, parser)

    model = ngram_train(sets["ShortTrain"], cfg.ngram_order, cfg.ngram_k)
    for split in SCORED_SPLITS:
        sets[f"{split}_scores"] = ngram_score(model, sets[split])
    ppls = {split: perplexity(sets[f"{split}_scores"]) for split in SCORED_SPLITS}
    accuracy = {kind: judge_pairs(ngram_score(model, pair) for pair in sets[f"{kind}_pairs"])
                for kind in PAIR_KINDS}

    _save_sets(out_dir, g.params, sets)
    return {"grammar_id": g.params, "ppls": ppls, "accuracy": accuracy}


def _pipeline_one(params: str, cfg: RunConfig, out_dir: Path, lex: Lexicon, procs=None) -> dict:
    """One grammar's `_grammar_record`, made in this process, or in a worker
    of the process pool ``procs``, waiting for it there."""
    if procs is None:
        return _grammar_record(params, cfg, out_dir, lex)
    return procs.submit(_grammar_record, params, cfg, out_dir, lex).result()


def _run_grammars(grammars, cfg: RunConfig, out_dir: Path, lex: Lexicon, workers: int) -> list:
    """The grammars' records, in order, made one after another in-process
    (one worker) or in a pool of ``workers`` forked processes.  A failure
    raises the error of the first failing grammar in order, as the serial run
    does; once a grammar has failed, no grammar after it in order starts."""
    if workers == 1:
        return [_pipeline_one(g.params, cfg, out_dir, lex) for g in grammars]
    # Imported here: they would add about 30 ms to every command's start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    failed = []  # the positions of the grammars that failed

    def one(i: int, g: Grammar):
        # A grammar after a failed one is skipped; one before it still runs,
        # so the first failure in order is the serial run's.
        if failed and min(failed) < i:
            return None
        try:
            return _pipeline_one(g.params, cfg, out_dir, lex, procs)
        except BaseException:
            failed.append(i)
            raise

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as procs:
        procs.submit(int).result()  # forks the workers before this starts its threads
        # Each thread hands one grammar to the pool and waits (it never parses),
        # so each `_pipeline_one` call spans one grammar in this process.  `map`
        # yields the records in order and, at the first failure in order,
        # cancels the grammars no thread has taken yet.
        with ThreadPoolExecutor(workers) as threads:
            return list(threads.map(one, range(len(grammars)), grammars))


def cmd_pipeline(args) -> None:
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    cfg = _build_config(args)
    grammars = _distinct_grammars(args.params)
    lex = _lexicon(cfg)
    table = _typology(cfg)
    out_dir = Path(cfg.out_dir).resolve()
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"out-dir is not a directory: {out_dir}")
    base = out_dir  # the out-dir, or the first existing directory on the way to it
    while not base.exists():
        base = base.parent
    # Forked workers leave through os._exit, so only this process removes the stage.
    with tempfile.TemporaryDirectory(dir=base, prefix=".stage.", ignore_cleanup_errors=True) as stage:
        run_dir = Path(stage, out_dir.relative_to(base))  # `_save_sets` makes missing parents
        results = _run_grammars(grammars, cfg, run_dir, lex, min(args.threads, len(grammars)))
        results.sort(key=lambda r: r["grammar_id"])
        rows = [report_row(grammar_by_id(res["grammar_id"]), split, res["ppls"][split], table)
                for res in results for split in SCORED_SPLITS]
        summary = None
        if len(results) == 96:
            ppls = {res["grammar_id"]: res["ppls"]["ShortTest"] for res in results}
            summary = summary_row("ShortTest", *ta_score(ppls, table), table)
        write_report(run_dir / "report.csv", rows, summary)
        write_json(run_dir / "judgments.json", {res["grammar_id"]: res["accuracy"] for res in results})
        # Publish: the files of an existing out-dir, else its first missing directory.
        for name in sorted(os.listdir(stage)):
            os.replace(Path(stage, name), base / name)
    for res in results:
        ppl_text = " ".join(f"{k}={v:.2f}" for k, v in sorted(res["ppls"].items()))
        acc_text = " ".join(f"{k}={v:.3f}" for k, v in sorted(res["accuracy"].items()))
        print(f"{res['grammar_id']} {ppl_text} {acc_text}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alforge",
        description="Artificial-language toolkit: categorial grammars, corpora, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p, *names):
        """--config, one flag per named RunConfig field, and --scale if a
        named field is a scaled count."""
        p.add_argument("--config", help="flat key=value config file")
        for name in names:
            flag = "--seed" if name == "master_seed" else "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=_FIELD_TYPES[name])
        if set(names) & set(_SCALED):
            p.add_argument("--scale", type=float, help="multiply the corpus counts")

    p = sub.add_parser("list-grammars", help="print the 96 grammars")
    p.set_defaults(func=cmd_list_grammars)

    p = sub.add_parser("gen-grammar", help="write one grammar's lexicon")
    p.add_argument("--params", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_grammar)

    p = sub.add_parser("enum-templates", help="enumerate grammatical templates")
    p.add_argument("--params", required=True)
    p.add_argument("--max-len", dest="max_len", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enum_templates)

    p = sub.add_parser("augment-long", help="sample the Long templates (lengths 11-20)")
    p.add_argument("--params", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--out")
    run_options(p, "master_seed", "long_templates_per_length")
    p.set_defaults(func=cmd_augment_long)

    p = sub.add_parser("gen-dataset", help="build Short/Medium/Long splits")
    p.add_argument("--params", nargs="+", required=True)
    run_options(p, "master_seed", "lexicon_path", "out_dir", "train_per_length",
                "test_per_length", "long_per_length", "long_templates_per_length")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("gen-targeted", help="build Recursive/Embedded test sets")
    p.add_argument("--params", required=True)
    p.add_argument("--kind", choices=("recursive", "embedded"), required=True)
    p.add_argument("--out")
    run_options(p, "master_seed", "lexicon_path", "targeted_n")
    p.set_defaults(func=cmd_gen_targeted)

    p = sub.add_parser("gen-pairs", help="build minimal pairs from a split")
    p.add_argument("--params", required=True)
    p.add_argument("--kind", choices=("case", "verb"), required=True)
    p.add_argument("--source", required=True, help="sentence JSONL to perturb")
    p.add_argument("--out")
    run_options(p, "master_seed", "lexicon_path", "pair_n")
    p.set_defaults(func=cmd_gen_pairs)

    p = sub.add_parser("score", help="score sentences with the n-gram baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    run_options(p, "ngram_order", "ngram_k")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ta-corr", help="typological-alignment correlation")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--split", default="ShortTest")
    p.add_argument("--out")
    run_options(p, "typology_path")
    p.set_defaults(func=cmd_ta_corr)

    p = sub.add_parser("judge", help="minimal-pair judgment accuracy")
    p.add_argument("--good", required=True)
    p.add_argument("--bad", required=True)
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("pipeline", help="datasets + baseline + metrics")
    p.add_argument("--params", nargs="+", required=True)
    run_options(p, *_FIELD_TYPES)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (forked; at most one per grammar); the "
                        "outputs do not depend on it")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
