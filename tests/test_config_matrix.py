"""A digest matrix over the config space: each row of
tests/fixtures/config_matrix.json is a `pipeline` config off the defaults
the golden digests pin (n-gram order and k, Long templates, scaled counts,
lexicon, typology and config files, a pool writing into missing parents),
and its run must write the recorded bytes and print the recorded stdout.
tests/record_config_matrix.py records the fixture."""

import hashlib
import json

import pytest

from alforge.cli import main
from record_config_matrix import MATRIX, argv_of, digests

ROWS = json.loads(MATRIX.read_text())


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_config_matches_recorded_digests(tmp_path, capsys, row):
    out = tmp_path / row["out_dir"]
    assert main([*argv_of(row), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    got = digests(out)
    assert sorted(got) == sorted(row["sha256"])
    changed = sorted(name for name, digest in row["sha256"].items() if got[name] != digest)
    assert not changed, f"artifacts differ from the recorded digests: {changed}"
    assert hashlib.sha256(stdout.encode()).hexdigest() == row["stdout"]
    # the run leaves nothing beside the out-dir or its first missing parent
    assert [p.name for p in tmp_path.iterdir()] == [row["out_dir"].split("/")[0]]
