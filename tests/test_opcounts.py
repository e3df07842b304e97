"""Deterministic operation counts.

Each point's PointGeometry is built once by its caller and passed down, and
the oracle evaluates a map once per point, so the number of builds, metric
evaluations and jet products per workload is fixed; a change that evaluates
a point again raises these counts.
"""

import pytest

from warpgeo import biharmonic, jet, oracle, verify, warped
from warpgeo.immersion import PointGeometry

POINT = (0.3, -0.2)


@pytest.fixture
def counts(monkeypatch):
    seen = {
        "builds": 0,
        "inclusion_bitension": 0,
        "submanifold_bitension": 0,
        "induced_metric_jets": 0,
        "mul": 0,
    }
    init = PointGeometry.__init__

    def counted_init(self, *args, **kwargs):
        seen["builds"] += 1
        init(self, *args, **kwargs)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    mul = jet.Jet.__mul__

    def counted_mul(self, other):
        seen["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(jet.Jet, "__mul__", counted_mul)
    monkeypatch.setattr(jet.Jet, "__rmul__", counted_mul)
    counted(warped, "inclusion_bitension")
    counted(oracle, "submanifold_bitension")
    counted(oracle, "induced_metric_jets")
    return seen


def _scene():
    spec = verify.sphere_slice(1.0)
    return warped.warped_scene(spec, "exp(t)", {}, verify.WARP_INTERVAL)


def test_warped_report_builds_geometry_once(counts):
    warped.warped_report(_scene(), 0.3, POINT)
    assert counts["builds"] == 1
    assert counts["inclusion_bitension"] == counts["submanifold_bitension"] == 1


def test_pairing_uses_the_given_geometry(counts):
    scene = _scene()
    pg = PointGeometry(scene.immersion, POINT)
    warped.pairing(scene, 0.3, POINT, geometry=pg)
    assert counts["builds"] == 1  # the caller's own build


def test_verify_pass_build_count(counts):
    verify.run_checks()
    assert counts["builds"] == 85


def test_scan_bisects_from_the_sampled_ends(counts):
    # 31 samples, then 29 midpoints for the one bracket around r = 1
    biharmonic.parameter_scan(verify.cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0))
    assert counts["builds"] == 60


@pytest.mark.parametrize("name", ["tension_first_principles", "bitension_first_principles"])
def test_oracle_evaluates_each_map_once(counts, name):
    scene = _scene()
    for mapspec, point in (
        (oracle.inclusion_map(scene.immersion), POINT),
        (oracle.warped_inclusion_map(scene), (0.3,) + POINT),
    ):
        counts["induced_metric_jets"] = 0
        getattr(oracle, name)(mapspec, point)
        assert counts["induced_metric_jets"] == 1


def test_verify_pass_mul_count(counts):
    verify.run_checks()
    assert counts["mul"] == 60_314


@pytest.mark.parametrize(
    "spec", [verify.cone(1.0), verify.sphere_slice(1.0)], ids=["cone", "slice"]
)
def test_grid_classify_is_one_batched_pass(counts, spec):
    # a 16-point grid costs the jet products of one point: one batched build
    biharmonic.classify(spec, [POINT], 1e-7)
    one = dict(counts)
    grid = [(0.2 + 0.1 * i, -0.3 + 0.2 * j) for i in range(4) for j in range(4)]
    biharmonic.classify(spec, grid, 1e-7)
    assert counts["mul"] - one["mul"] == one["mul"]
    assert counts["builds"] - one["builds"] == one["builds"] == 1
