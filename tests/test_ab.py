"""Smoke test of tools/ab.py, the in-process A/B timing harness.

    python3 -m pytest tests/test_ab.py

It runs the harness A/A on the working tree (the base is this checkout's
src/warpgeo, so no git revision is read) over a few requests of each
workload, writes its JSON under pytest's tmp_path, and checks the keys of
what it wrote and that every request's output passed its workload's
check.  The warp check reads `pairing_closed_form_applicable` and
`power_residual` off each report, so a change to the report fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_writes_its_record(tmp_path):
    out = tmp_path / "ab.json"
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--base", str(ROOT / "src"),
            "--quick", "--workloads", "grid,warp,verify", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, cwd=tmp_path, timeout=60)
    record = json.loads(out.read_text())
    assert set(record) == {"base", "protocol", "machine", "workloads"}
    assert record["protocol"] == {"rounds": 2, "seconds": 0.0, "seed": 0}
    assert list(record["workloads"]) == ["grid", "warp", "verify"]
    for result in record["workloads"].values():
        assert set(result) == {
            "requests_per_round", "base_round_s", "change_round_s", "base_s", "change_s",
            "ratio_base_over_change", "change_faster_rounds", "rounds", "aa_ratio",
            "aa_second_faster_rounds", "failed_requests",
        }
        assert len(result["base_round_s"]) == len(result["change_round_s"]) == result["rounds"] == 2
        assert set(result["aa_ratio"]) == {"median", "q1", "q3"}
        assert result["failed_requests"] == {"base": 0, "change": 0, "aa": 0}
