"""Golden artifact digests: a refactor must leave `pipeline` outputs
byte-identical.

The fixture holds the sha256 of every artifact of the recorded command.  An
intended output change updates the fixture in the same change and says so in
CHANGES.md.  To re-record, run the command below into an empty directory and
write the digests of its files, by file name, into the fixture.

The benchmark's digests, perfbench/refs/pipeline96.json, pin the full-scale
config too; two more tests check all 96 grammars' files against them, with
--params in canonical and in shuffled order.  Another runs the pool under
two string-hash salts and compares the runs.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from alforge import evaluation
from alforge.cli import main
from alforge.evaluation import TypologyTable
from alforge.grammars import enumerate_grammars
from alforge.parser import _rule_results

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


def compensated_sum(values):
    """``sum`` over ints and floats as Python 3.12 adds them (gh-100425):
    exactly while the total is an int, then each float with Neumaier's
    compensation, which is added back at the end when it is finite."""
    values = iter(values)
    total = 0
    for x in values:
        total = total + x
        if isinstance(total, float):
            break
    else:
        return total
    compensation = 0.0
    for x in values:
        if type(x) is not float:
            total += float(x)
            continue
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_emulation():
    # Neumaier's sum is exact where the plain left fold rounds.
    assert sum([0.54, 0.04, 0.23, 0.01, 0.12, 0.05]) == 0.9900000000000001
    assert compensated_sum([0.54, 0.04, 0.23, 0.01, 0.12, 0.05]) == 0.99
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0 != sum([1.0, 1e100, 1.0, -1e100])
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0
    assert compensated_sum([-0.0]) == 0.0 and compensated_sum([math.inf, 1.0]) == math.inf


def test_artifacts_do_not_depend_on_float_summation(tmp_path, capsys, monkeypatch):
    """With ``alforge.evaluation``'s ``sum`` swapped for the compensated sum
    of Python 3.12, the default typology still validates and the golden
    artifacts keep their digests: no float the artifacts carry is summed by
    the builtin."""
    monkeypatch.setattr(evaluation, "sum", compensated_sum, raising=False)
    TypologyTable.default()
    golden = json.loads(FIXTURE.read_text())
    out = tmp_path / "out"
    assert main([*golden["argv"], "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == golden["sha256"]


BENCH_REFS = Path(__file__).parent.parent / "perfbench" / "refs" / "pipeline96.json"


def benchmark_ref_mismatches(ids: list[str], out: Path, capsys) -> list[str]:
    """The files of `pipeline --params <ids> --scale 0.1 --seed 11 --threads
    2` whose digests differ from perfbench/refs/pipeline96.json."""
    want = json.loads(BENCH_REFS.read_text())
    assert len(ids) == 96 and len(want) == 13 * 96 + 2
    argv = ["pipeline", "--params", *ids, "--scale", "0.1", "--seed", "11", "--threads", "2"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(want)
    return sorted(name for name, digest in want.items() if got[name] != digest)


def test_full_scale_artifacts_match_benchmark_refs(tmp_path, capsys):
    """The benchmark's command, `pipeline --scale 0.1 --seed 11 --threads 2`
    over all 96 grammars: every file of the out-dir, `report.csv` and
    `judgments.json` included, has its digest in
    perfbench/refs/pipeline96.json."""
    changed = benchmark_ref_mismatches([g.params for g in enumerate_grammars()],
                                       tmp_path / "out", capsys)
    assert not changed, f"artifacts differ from the benchmark refs: {changed}"


def test_benchmark_refs_hold_in_shuffled_order(tmp_path, capsys):
    """The benchmark passes --params in an order shuffled by its seed, to
    workers that start with an empty rule memo: the digests still hold."""
    ids = [g.params for g in enumerate_grammars()]
    random.Random(42).shuffle(ids)
    _rule_results.cache_clear()  # the pool's forked workers start cold
    changed = benchmark_ref_mismatches(ids, tmp_path / "out", capsys)
    assert not changed, f"artifacts differ from the benchmark refs: {changed}"


def test_artifacts_do_not_depend_on_the_hash_salt(tmp_path):
    """Two pool runs in processes with different string-hash salts
    (PYTHONHASHSEED 1 and 2) write the same bytes and print the same lines,
    so no output depends on the iteration order of a set or dict of
    strings."""
    argv = [sys.executable, "-m", "alforge.cli", "pipeline", "--params", "0101101", "0000000",
            "--scale", "0.05", "--seed", "7", "--threads", "2"]
    src = Path(__file__).parent.parent / "src"
    runs = []
    for salt in ("1", "2"):
        out = tmp_path / salt
        env = {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": str(src)}
        done = subprocess.run([*argv, "--out-dir", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    (stdout, files), other = runs
    assert len(files) == 13 * 2 + 2
    assert (stdout, files) == other
