"""Checks on the benchmark's tracer.

    python3 -m pytest bench/test_trace.py

For one request of each workload, the call count the tracer records for
every wrapped function must equal cProfile's ncalls for it, and a second
run of the same seeded request must give the same counts exactly.  The
counts at the commit that introduced the benchmark are a ceiling: an
optimisation lowers them, a regression raises them.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import warpgeo  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

SEED = 7

# Jet.__mul__ calls (jet x jet and jet x scalar) and PointGeometry builds
# per request when the benchmark was introduced.
CEILING = {
    "verify": {"Jet.__mul__": 100_791, "PointGeometry": 170},
    "warp": {"PointGeometry": 4 * 5},
    "grid": {"PointGeometry": 16},
}


def _request(name):
    workload = WORKLOADS[name]
    built = workload.build()
    request = workload.requests(np.random.default_rng(SEED), 0)[0]
    return workload, built, request


def _traced(name):
    workload, built, request = _request(name)
    tracer = Tracer()
    with tracer:
        out = workload.run(built, request)
    assert workload.check(request, out)
    return tracer


def _profiled(name):
    workload, built, request = _request(name)
    profile = cProfile.Profile()
    profile.enable()
    out = workload.run(built, request)
    profile.disable()
    assert workload.check(request, out)
    return {key[:3]: value[1] for key, value in pstats.Stats(profile).stats.items()}


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    return name, _traced(name), _traced(name), _profiled(name)


def test_counts_match_cprofile(runs):
    name, tracer, _, ncalls = runs
    assert tracer.fed_by, "nothing was wrapped"
    mismatches = {
        fn.__qualname__: (tracer.calls_of(fn), ncalls.get(_key(fn), 0))
        for fn in tracer.fed_by
        if tracer.calls_of(fn) != ncalls.get(_key(fn), 0)
    }
    assert not mismatches, f"{name}: tracer vs cProfile {mismatches}"


def test_counts_repeat_exactly(runs):
    _, first, second, _ = runs
    calls = lambda tr: {k: c for k, (c, _) in tr.totals().items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert first.build_keys == second.build_keys


def test_counts_within_ceiling(runs):
    name, tracer, _, _ = runs
    ceiling = CEILING[name]
    by_name = {fn.__qualname__: tracer.calls_of(fn) for fn in tracer.fed_by}
    if "Jet.__mul__" in ceiling:
        assert by_name["Jet.__mul__"] <= ceiling["Jet.__mul__"]
    assert by_name["PointGeometry.__init__"] <= ceiling["PointGeometry"]


def test_every_binding_site_is_wrapped_and_restored():
    from warpgeo import biharmonic, expr, jet, oracle, verify, warped

    immersion = sys.modules["warpgeo.immersion"]  # warpgeo.immersion is a function
    build, classify, mul, compose = (
        immersion.PointGeometry.__init__,
        biharmonic.classify,
        jet.Jet.__mul__,
        jet._compose,
    )
    # A module-level dict holding a wrapped target is a binding site too.
    expr._JET_FN["_probe"] = compose
    try:
        with Tracer():
            assert warped.classify is biharmonic.classify is warpgeo.classify
            assert warped.classify is not classify
            assert jet.Jet.__rmul__ is jet.Jet.__mul__ is not mul
            assert expr._JET_FN["_probe"] is jet._compose is not compose
            for module in (biharmonic, warped, verify, oracle):
                assert module.PointGeometry.__init__ is not build
        assert immersion.PointGeometry.__init__ is build
        assert warped.classify is biharmonic.classify is classify
        assert jet.Jet.__rmul__ is jet.Jet.__mul__ is mul
        assert expr._JET_FN["_probe"] is jet._compose is compose
    finally:
        del expr._JET_FN["_probe"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    totals = tracer.totals()
    inner = tracer.inclusive_s("inner")
    outer = tracer.inclusive_s("outer")
    assert totals["inner"] == (1, pytest.approx(inner))
    assert totals["outer"][1] == pytest.approx(outer - inner)
    assert tracer.child_count("inner", "outer") == 1


def test_missing_target_is_skipped_and_reported_absent(monkeypatch):
    from warpgeo import jet, verify

    monkeypatch.delattr(jet, "_compose")
    monkeypatch.delattr(verify, "_checks_ricci")
    tracer = Tracer()
    with tracer:
        pass
    metrics = tracer.layer_metrics(None)
    assert metrics["jet.univariate.calls"][0] is None
    assert metrics["jet.univariate.self_s"][0] is None
    assert metrics["verify.ricci.s"][0] is None
    assert metrics["jet.mul.flops_computed"][0] is None
    assert metrics["jet.mul.calls"][0] == 0
    assert metrics["verify.pairing.s"][0] == 0.0
