"""Record tests/fixtures/golden_pipeline.json, the digests that
tests/test_golden.py compares the `pipeline` artifacts against.

    python3 tests/record_golden.py

The fixture holds the recorded command's argv and the sha256 of every file
it writes into an empty out-dir, by file name.  Re-record only in a change
that alters outputs on purpose and says so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from record_config_matrix import digests

TESTS = Path(__file__).parent
GOLDEN = TESTS / "fixtures" / "golden_pipeline.json"
SRC = TESTS.parent / "src"

ARGV = ["pipeline", "--params", "0101101", "0000000", "1111111", "--scale", "0.05", "--seed", "11"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        subprocess.run([sys.executable, "-m", "alforge.cli", *ARGV, "--out-dir", str(out)],
                       check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        golden = {"argv": ARGV, "sha256": digests(out)}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(golden['sha256'])} files -> {GOLDEN}")


if __name__ == "__main__":
    main()
