"""The names the benchmark traces still resolve.

    python3 -m pytest tests/test_bench_contract.py

`bench/tracer.py` wraps warpgeo functions by name and reports a per-layer
metric as None when no function feeding it resolves, so a function renamed
or removed in the package turns a metric of `BENCHMARK.json` into null.
For one seeded request of each workload, every per-layer metric that the
benchmark declares must be a number.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import warpgeo.jet

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# measured by bench/run.py around the whole run, not by the tracer
NOT_TRACED = {"trace.overhead_frac"}
PER_LAYER = [
    m["name"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] not in NOT_TRACED
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_per_layer_metric_is_a_number(name):
    workload = WORKLOADS[name]
    built = workload.build()
    request = workload.requests(np.random.default_rng(7), 0)[0]
    with Tracer() as tracer:
        out = workload.run(built, request)
    assert workload.check(request, out)
    metrics = tracer.layer_metrics(warpgeo.jet._space)
    missing = [m for m in PER_LAYER if not isinstance(metrics.get(m, (None,))[0], (int, float))]
    assert missing == []
