"""Golden artifact digests: a refactor must leave `pipeline` outputs
byte-identical.

The fixture holds the sha256 of every artifact of the recorded command.  An
intended output change updates the fixture in the same change and says so in
CHANGES.md.  To re-record, run the command below into an empty directory and
write the digests of its files, by file name, into the fixture.

The benchmark's digests, perfbench/refs/pipeline96.json, pin the full-scale
config too; a second test checks all 96 grammars' files against them.
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


def test_full_scale_artifacts_match_benchmark_refs(tmp_path, capsys):
    """The benchmark's command, `pipeline --scale 0.1 --seed 11 --threads 2`
    over all 96 grammars: every file of the out-dir, `report.csv` and
    `judgments.json` included, has its digest in
    perfbench/refs/pipeline96.json."""
    want = json.loads(BENCH_REFS.read_text())
    ids = [g.params for g in enumerate_grammars()]
    assert len(ids) == 96 and len(want) == 13 * 96 + 2
    out = tmp_path / "out"
    argv = ["pipeline", "--params", *ids, "--scale", "0.1", "--seed", "11", "--threads", "2"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(want)
    changed = sorted(name for name, digest in want.items() if got[name] != digest)
    assert not changed, f"artifacts differ from the benchmark refs: {changed}"
