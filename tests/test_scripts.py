"""Smoke tests of the scripts under scripts/: each runs as a subprocess, the
way a user starts it, and must exit 0 with the rows it promises."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_small_experiment(tmp_path):
    out = run_script("run_small_experiment.py", "--params", "0101101", "--scale", "0.05",
                     "--seed", "3", "--out-dir", str(tmp_path / "demo"))
    rows = [line.split() for line in out.splitlines() if line.split()[:1] == ["0101101"]]
    assert len(rows) == 1
    assert rows[0][1] == "SVO"
    assert (tmp_path / "demo" / "0101101_ShortTrain.jsonl").exists()


def test_template_census():
    out = run_script("template_census.py", "--max-len", "5")
    rows = [line for line in out.splitlines() if re.match(r"[01]{7}\s", line)]
    assert len(rows) == 96
    assert len({row.split()[0] for row in rows}) == 96
