"""Regenerate the benchmark's correctness references in perfbench/refs/.

    python3 perfbench/make_refs.py

The references are the outputs of the code in src/ when they were recorded:
- census.json: per-grammar, per-length template counts and the sha256 of each
  template list, for every (grammar, max_len) the census enumerates.
- pipeline96.json: the sha256 of every artifact of the 96-grammar pipeline.
- parse_mix_pool.jsonl: labelled class sequences the parse_mix workload draws
  from.  Labels at length <= 10 are membership in
  templates.grammatical_sequences(g, 10), a source independent of
  ChartParser; labels at 11-20 are ChartParser verdicts frozen at recording.

Regenerate only in a change that alters outputs on purpose and says so.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import (
    CENSUS_DEEP,
    CENSUS_MAX_LEN,
    OUT,
    PIPELINE_ARGS,
    REFS,
    SRC,
    add_src_path,
    census_record,
    digest_tree,
)

# Per grammar; ~65% negatives, as among the Long sampler's parse checks.
POOL_POSITIVE_SHORT = 5  # lengths 3-10
POOL_POSITIVE_LONG = 5  # distinct lengths in 11-20
POOL_NEGATIVE = 19


def make_census() -> None:
    from alforge.grammars import enumerate_grammars, grammar_by_id
    from alforge.templates import enumerate_templates

    plan = [(g.params, CENSUS_MAX_LEN) for g in enumerate_grammars()] + list(CENSUS_DEEP)
    recs = [census_record(gid, n, enumerate_templates(grammar_by_id(gid), n)) for gid, n in plan]
    (REFS / "census.json").write_text(json.dumps(recs, indent=1, sort_keys=True) + "\n")


def make_pipeline() -> None:
    from alforge.grammars import enumerate_grammars

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="refs-pipeline-", dir=OUT)
    try:
        ids = [g.params for g in enumerate_grammars()]
        subprocess.run(
            [sys.executable, "-m", "alforge.cli", "pipeline", "--params", *ids,
             *PIPELINE_ARGS, "--threads", "1", "--out-dir", out_dir],
            check=True, stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        # Recorded with one worker; the benchmark runs PIPELINE_THREADS, so
        # the check also covers independence from the worker count.
        digests = digest_tree(Path(out_dir))
    finally:
        shutil.rmtree(out_dir)
    (REFS / "pipeline96.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def _twin(classes: tuple[str, ...], rng: random.Random, kind: int):
    if kind == 0:
        idxs = [i for i, c in enumerate(classes) if c in ("SUBJ", "OBJ")]
        swap = {"SUBJ": "OBJ", "OBJ": "SUBJ"}
    else:
        idxs = [i for i, c in enumerate(classes) if c == "VT"]
        swap = {"VT": "VI"}
    if not idxs:
        return None
    i = rng.choice(idxs)
    return classes[:i] + (swap[classes[i]],) + classes[i + 1:]


def _extension(templates, rng: random.Random):
    t1, t2 = rng.choice(templates), rng.choice(templates)
    op = rng.randrange(3)
    if op == 0:
        return t1 + t2
    if op == 1:
        return t1 + ("CONJ",) + t2
    i = rng.randrange(1, len(t1))
    return t1[:i] + ("CONJ",) + t2 + t1[i:]


def make_pool() -> None:
    from alforge.grammars import enumerate_grammars
    from alforge.parser import ChartParser
    from alforge.templates import enumerate_templates, grammatical_sequences, sample_long_templates

    lines = []
    disagreements = 0
    for g in enumerate_grammars():
        rng = random.Random(f"pool:{g.params}")
        parser = ChartParser(g.policy)
        templates = enumerate_templates(g, CENSUS_MAX_LEN)
        language = grammatical_sequences(g, CENSUS_MAX_LEN)

        def label(t):
            nonlocal disagreements
            verdict = parser.parse(g.categorize(t)).grammatical
            if len(t) > CENSUS_MAX_LEN:
                return verdict, "seed_parser"
            member = t in language[len(t)]
            disagreements += member != verdict
            return member, "grammatical_sequences"

        by_len: dict[int, list] = {}
        for t in templates:
            by_len.setdefault(len(t), []).append(t)
        positives = [rng.choice(by_len[rng.choice(sorted(by_len))]) for _ in range(POOL_POSITIVE_SHORT)]
        long_templates = sample_long_templates(
            templates, g, 1, 11, 20, seed=rng.randrange(2**32), parser=parser
        )
        positives += rng.sample(long_templates, POOL_POSITIVE_LONG)
        items: dict[tuple, tuple] = {}
        for t in positives:
            items[t] = ("template" if len(t) <= CENSUS_MAX_LEN else "long_template",) + label(t)
        negatives = 0
        while negatives < POOL_NEGATIVE:
            kind = rng.randrange(3)
            if kind < 2:
                cand = _twin(rng.choice(positives), rng, kind)
            else:
                cand = _extension(templates, rng)
            if cand is None or cand in items or not 3 <= len(cand) <= 20:
                continue
            verdict = label(cand)
            if verdict[0]:
                continue
            items[cand] = (("case_twin", "verb_twin", "extension")[kind],) + verdict
            negatives += 1
        for t, (source, lab, label_source) in items.items():
            lines.append(json.dumps({
                "grammar": g.params, "classes": " ".join(t), "label": lab,
                "source": source, "label_source": label_source,
            }, sort_keys=True))
    if disagreements:
        print(f"warning: ChartParser disagrees with grammatical_sequences on "
              f"{disagreements} pool items", file=sys.stderr)
    (REFS / "parse_mix_pool.jsonl").write_text("\n".join(lines) + "\n")


def main() -> int:
    add_src_path()
    REFS.mkdir(exist_ok=True)
    for step in (make_census, make_pipeline, make_pool):
        step()
    return 0


if __name__ == "__main__":
    sys.exit(main())
