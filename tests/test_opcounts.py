"""Deterministic operation counts.

Each point's PointGeometry is built once by its caller and passed down, so
the number of builds per workload is fixed; a change that evaluates a point
again raises these counts.
"""

import pytest

from warpgeo import oracle, verify, warped
from warpgeo.immersion import PointGeometry

POINT = (0.3, -0.2)


@pytest.fixture
def counts(monkeypatch):
    seen = {"builds": 0, "inclusion_bitension": 0, "submanifold_bitension": 0}
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

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    counted(warped, "inclusion_bitension")
    counted(oracle, "submanifold_bitension")
    return seen


def _scene():
    spec = verify.sphere_slice(1.0)
    return warped.warped_scene(spec, "exp(t)", {}, verify.WARP_INTERVAL)


def test_warped_report_builds_geometry_once(counts):
    warped.warped_report(_scene(), 0.3, POINT)
    assert counts == {"builds": 1, "inclusion_bitension": 1, "submanifold_bitension": 1}


def test_pairing_uses_the_given_geometry(counts):
    scene = _scene()
    pg = PointGeometry(scene.immersion, POINT)
    warped.pairing(scene, 0.3, POINT, geometry=pg)
    assert counts["builds"] == 1  # the caller's own build


def test_verify_pass_build_count(counts):
    verify.run_checks()
    assert counts["builds"] == 87
