"""Definitions shared by the benchmark driver, its worker processes and the
reference generator: where things live, what each workload's inputs are for a
given seed, and how outputs are reduced to digests for the correctness check.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
OUT = ROOT / ".bench_out"

WORKLOADS = ("pipeline96", "census", "parse_mix")

# The ROADMAP's end-to-end run.  The pipeline seed stays fixed so that the
# recorded artifact digests apply; the benchmark seed permutes --params.
PIPELINE_ARGS = ["--scale", "0.1", "--seed", "11"]
PIPELINE_THREADS = 2  # nproc on the reference machine

# Census: every grammar to the paper's max_len, then two grammars deeper to
# make peak memory matter.  0011010 has require_rel, so _language runs twice.
CENSUS_MAX_LEN = 10
CENSUS_DEEP = (("0101101", 14), ("0011010", 14))

# parse_mix parses every labelled sequence in refs/parse_mix_pool.jsonl, and
# this share of the grammatical ones with derivations=True.
DERIVATION_SHARE = 0.1


def add_src_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def grammar_ids() -> list[str]:
    """The 96 canonical ids, read from the references so that the driver
    need not import the package under test."""
    return sorted({rec["grammar"] for rec in load_census_ref() if rec["max_len"] == CENSUS_MAX_LEN})


def pipeline_order(seed: int, ids: list[str]) -> list[str]:
    order = list(ids)
    random.Random(f"pipeline96:{seed}").shuffle(order)
    return order


def census_plan(seed: int, ids: list[str], pass_index: int) -> list[tuple[str, int]]:
    rng = random.Random(f"census:{seed}:{pass_index}")
    shallow = list(ids)
    rng.shuffle(shallow)
    deep = list(CENSUS_DEEP)
    rng.shuffle(deep)
    return [(gid, CENSUS_MAX_LEN) for gid in shallow] + deep


def parse_mix(seed: int) -> list[dict]:
    """The run's mix: the whole pool in a seeded order, with a seeded
    DERIVATION_SHARE of the grammatical items marked for derivation
    extraction.  Every seed parses the same sequences, so the seed moves the
    figures only through order and the derivation picks."""
    rng = random.Random(f"parse_mix:{seed}")
    mix = load_pool()
    rng.shuffle(mix)
    grammatical = [i for i, item in enumerate(mix) if item["label"]]
    picked = set(rng.sample(grammatical, round(DERIVATION_SHARE * len(grammatical))))
    return [dict(item, derivations=i in picked) for i, item in enumerate(mix)]


def template_digest(templates) -> str:
    h = hashlib.sha256()
    for t in templates:
        h.update(" ".join(t).encode())
        h.update(b"\n")
    return h.hexdigest()


def census_record(gid: str, max_len: int, templates) -> dict:
    counts: dict[str, int] = {}
    for t in templates:
        counts[str(len(t))] = counts.get(str(len(t)), 0) + 1
    return {"grammar": gid, "max_len": max_len, "counts": counts,
            "digest": template_digest(templates)}


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def load_census_ref() -> list[dict]:
    return json.loads((REFS / "census.json").read_text())


def load_pipeline_ref() -> dict[str, str]:
    return json.loads((REFS / "pipeline96.json").read_text())


def load_pool() -> list[dict]:
    with open(REFS / "parse_mix_pool.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]
