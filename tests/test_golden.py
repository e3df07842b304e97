"""`warpgeo verify --json` and `warpgeo warp --csv` against recorded runs.

`tests/data/verify_golden.json` holds the output of `warpgeo verify --json`
from before jet tensor contractions replaced the scalar jet loops.  A
refactor may change how sums are rounded, but not which checks run or
what they expect, and every result must stay within 1e-12 relative.

`tests/data/warp_<name>.csv` and `warp_<name>.json` hold `warpgeo warp
--csv` and `--json` on the S3 slice, recorded again when the warped layer
moved its vectors into an h-orthonormal frame: that change rounds some
values differently in the last place (each within 1e-15 relative of the
earlier recording, or, for round-off of zero, 1e-15 absolute).  A
refactor that moves no bit must keep the output byte for byte the same.
"""

import json
from pathlib import Path

import pytest

from warpgeo import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_golden.json"
SLICE = {
    "ambient": {"model": "sphere", "dim": 3},
    "immersion": {
        "variables": ["u", "v"],
        "components": ["u", "v", "r"],
        "params": {"r": 1.0},
    },
}
WARP_SWEEPS = {
    "exp": ({"expr": "exp(t)", "interval": [-0.5, 1.0], "params": {}}, "-0.4:0.8:5"),
    "power": (
        {
            "expr": "(a*t+b)^(1/m)",
            "interval": [0.0, 1.5],
            "params": {"a": 1.0, "b": 2.0, "m": 2},
        },
        "0.1:1.3:5",
    ),
}


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


@pytest.mark.parametrize("name", sorted(WARP_SWEEPS))
def test_warp_csv_matches_golden(tmp_path, capsys, name):
    warp, tgrid = WARP_SWEEPS[name]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({**SLICE, "warp": warp}))
    out = tmp_path / "warp.csv"
    out_json = tmp_path / "warp.json"
    argv = ["warp", str(scene), f"--t={tgrid}", "--point", "0.3,-0.2", "--csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json", str(out_json)])
    capsys.readouterr()
    assert exc.value.code == 0
    assert out.read_bytes() == (DATA / f"warp_{name}.csv").read_bytes()
    assert out_json.read_bytes() == (DATA / f"warp_{name}.json").read_bytes()
