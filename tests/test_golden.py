"""`warpgeo verify --json` against a recorded run.

`tests/data/verify_golden.json` holds the output of `warpgeo verify --json`
from before jet tensor contractions replaced the scalar jet loops.  A
refactor may change how sums are rounded, but not which checks run or
what they expect, and every result must stay within 1e-12 relative.
"""

import json
from pathlib import Path

import pytest

from warpgeo import cli

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"


def test_verify_json_matches_golden(tmp_path, capsys):
    out = tmp_path / "verify.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--json", str(out)])
    capsys.readouterr()
    assert exc.value.code == 0
    rows = json.loads(out.read_text())["checks"]
    golden = json.loads(GOLDEN.read_text())["checks"]
    assert len(rows) == len(golden) == 126
    for row, ref in zip(rows, golden):
        assert (row["name"], row["expected"], row["tol"]) == (
            ref["name"], ref["expected"], ref["tol"]
        )
        assert abs(row["got"] - ref["got"]) <= 1e-12 * (1.0 + abs(ref["got"])), row["name"]
