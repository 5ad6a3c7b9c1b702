"""Record tests/fixtures/config_matrix.json, the digests that
tests/test_config_matrix.py compares each `pipeline` config against.

    python3 tests/record_config_matrix.py

Each row is one config: its argv (``{fixtures}`` stands for
tests/fixtures), its out-dir below an empty directory, the sha256 of every
file the run writes there and of its stdout.  Re-record only in a change
that alters outputs on purpose and says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"
MATRIX = FIXTURES / "config_matrix.json"
SRC = TESTS.parent / "src"

# 0011010 sets a policy, 0101101 does not; the defaults at this scale are
# 50 train and 5 test sentences a length, 2 Long, 25 targeted and 5 pairs.
BASE = ["pipeline", "--params", "0011010", "0101101", "--scale", "0.05"]
ROWS = [
    ("ngram_order_1", ["--seed", "11", "--ngram-order", "1"], "out"),
    ("ngram_order_5_k_0.5", ["--seed", "11", "--ngram-order", "5", "--ngram-k", "0.5"], "out"),
    ("long_templates_25", ["--seed", "11", "--long-templates-per-length", "25"], "out"),
    ("counts", ["--seed", "11", "--long-per-length", "80", "--targeted-n", "300",
                "--pair-n", "160"], "out"),
    ("lexicon", ["--seed", "11", "--lexicon-path", "{fixtures}/matrix_lexicon.json"], "out"),
    ("typology_and_config", ["--config", "{fixtures}/matrix.cfg",
                             "--typology-path", "{fixtures}/matrix_typology.json"], "out"),
    ("threads_2_missing_parents", ["--seed", "11", "--threads", "2"], "new/a/out"),
]


def argv_of(row: dict) -> list[str]:
    """A row's argv with ``{fixtures}`` resolved, without its out-dir."""
    return [arg.format(fixtures=FIXTURES) for arg in row["argv"]]


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def record(name: str, argv: list[str], out_dir: str) -> dict:
    row = {"name": name, "argv": BASE + argv, "out_dir": out_dir}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, out_dir)
        done = subprocess.run(
            [sys.executable, "-m", "alforge.cli", *argv_of(row), "--out-dir", str(out)],
            check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        row["stdout"] = hashlib.sha256(done.stdout).hexdigest()
        row["sha256"] = digests(out)
    return row


def main() -> None:
    rows = [record(*row) for row in ROWS]
    MATRIX.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} configs -> {MATRIX}")


if __name__ == "__main__":
    main()
