"""Golden artifact digests: a refactor must leave `pipeline` outputs
byte-identical.

The fixture holds the sha256 of every artifact of the recorded command.  An
intended output change updates the fixture in the same change and says so in
CHANGES.md.  To re-record, run the command below into an empty directory and
write the digests of its files, by file name, into the fixture.

The benchmark's digests, perfbench/refs/pipeline96.json, pin the full-scale
config too; a second test checks 24 grammars' files against them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from alforge.cli import main
from alforge.grammars import enumerate_grammars

FIXTURE = Path(__file__).parent / "fixtures" / "golden_pipeline.json"


# The benchmark's command line passes --threads 2, which runs the grammars in
# a pool of two worker processes; it must leave every artifact unchanged.
@pytest.mark.parametrize("extra", [[], ["--threads", "2"]], ids=["default", "threads2"])
def test_pipeline_artifacts_match_golden_digests(tmp_path, capsys, extra):
    golden = json.loads(FIXTURE.read_text())
    out = tmp_path / "out"
    assert main([*golden["argv"], *extra, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(golden["sha256"])
    changed = sorted(name for name, digest in golden["sha256"].items() if got[name] != digest)
    assert not changed, f"artifacts differ from the golden digests: {changed}"


BENCH_REFS = Path(__file__).parent.parent / "perfbench" / "refs" / "pipeline96.json"
# Four grammars per base order, whose factor bits (COMP, PP, ADJ, REL) are
# 0000, 0101, 1010 and 1111; the SOV, OSV, OVS and VOS ones are grammars whose
# ``policy`` is set, so they coordinate with REL-conditional permutation.
FULL_SCALE_IDS = tuple(
    g.params for g in enumerate_grammars() if g.params[3:] in ("0000", "0101", "1010", "1111"))


def test_full_scale_artifacts_match_benchmark_refs(tmp_path, capsys):
    """The benchmark's config, `--scale 0.1 --seed 11 --threads 2`, on 24
    of the 96 grammars: each grammar's files equal those of the 96-grammar
    run in perfbench/refs/pipeline96.json, since no per-grammar artifact
    depends on the other grammars of the run or on the worker running it."""
    refs = json.loads(BENCH_REFS.read_text())
    want = {name: digest for name, digest in refs.items() if name.split("_")[0] in FULL_SCALE_IDS}
    assert len(FULL_SCALE_IDS) == 24 and len(want) == 13 * 24
    out = tmp_path / "out"
    argv = ["pipeline", "--params", *FULL_SCALE_IDS, "--scale", "0.1", "--seed", "11",
            "--threads", "2"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.jsonl"))}
    assert sorted(got) == sorted(want)
    changed = sorted(name for name, digest in want.items() if got[name] != digest)
    assert not changed, f"artifacts differ from the benchmark refs: {changed}"
