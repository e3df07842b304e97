import math

import numpy as np
import pytest

from warpgeo.ambient import AmbientChart
from warpgeo.errors import ConfigError, DegenerateImmersionError, UsageError
from warpgeo.immersion import PointGeometry, immersion

CONE_POINTS = [(0.5, 1.0), (1.0, 0.7), (2.0, 2.5)]
SLICE_POINTS = [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)]


class TestSpecValidation:
    def test_component_count(self):
        with pytest.raises(ConfigError):
            immersion(("u", "v"), ("u", "v"), {}, AmbientChart("euclidean", 3))

    def test_too_many_variables(self):
        with pytest.raises(ConfigError):
            immersion(
                ("u", "v", "w"), ("u", "v", "w"), {}, AmbientChart("euclidean", 3)
            )

    def test_unbound_identifier(self):
        with pytest.raises(ConfigError):
            immersion(("u", "v"), ("u", "v", "q"), {}, AmbientChart("euclidean", 3))

    def test_with_params(self, cone):
        spec = cone(1.0)
        spec2 = spec.with_params(r=2.0)
        assert spec2.params["r"] == 2.0
        assert spec.params["r"] == 1.0
        assert spec2.components is spec.components

    def test_hypersurface_flag(self, cone):
        assert cone(1.0).is_hypersurface
        curve = immersion(("s",), ("s", "s", "0"), {}, AmbientChart("euclidean", 3))
        assert not curve.is_hypersurface
        with pytest.raises(UsageError):
            PointGeometry(curve, (1.0,)).require_hypersurface()


class TestReportInvariants:
    @pytest.mark.parametrize("point", CONE_POINTS)
    def test_cone_frame_relations(self, cone, point):
        pg = PointGeometry(cone(1.3), point)
        n = pg.spec.n
        e2 = pg.e2_val
        # H normal to every tangent vector
        for i in range(pg.spec.m):
            assert e2 * np.dot(pg.H_val, pg.dX_val[i]) == pytest.approx(0.0, abs=1e-9)
        # unit normal, lambda = h(H, eta)
        assert e2 * np.dot(pg.eta_val, pg.eta_val) == pytest.approx(1.0, abs=1e-12)
        assert e2 * np.dot(pg.H_val, pg.eta_val) == pytest.approx(pg.lam, abs=1e-10)
        # B normal to the tangent space
        for i in range(pg.spec.m):
            for j in range(pg.spec.m):
                for k in range(pg.spec.m):
                    assert e2 * np.dot(pg.B_val[i][j], pg.dX_val[k]) == pytest.approx(
                        0.0, abs=1e-9
                    )
        # shape operator: symmetric frame matrix, trace m lambda
        assert np.allclose(pg.A_frame, pg.A_frame.T, atol=1e-9)
        assert np.trace(pg.S_val) == pytest.approx(pg.spec.m * pg.lam, abs=1e-9)
        assert pg.normA2 == pytest.approx(float(np.sum(pg.A_frame**2)), abs=1e-9)
        assert n == 3

    @pytest.mark.parametrize("point", SLICE_POINTS)
    def test_slice_frame_relations(self, sphere_slice, point):
        pg = PointGeometry(sphere_slice(1.5), point)
        e2 = pg.e2_val
        assert e2 * np.dot(pg.eta_val, pg.eta_val) == pytest.approx(1.0, abs=1e-12)
        assert e2 * np.dot(pg.H_val, pg.eta_val) == pytest.approx(pg.lam, abs=1e-10)
        assert np.trace(pg.S_val) == pytest.approx(pg.spec.m * pg.lam, abs=1e-9)

    def test_report_dict(self, cone):
        rep = PointGeometry(cone(1.0), (1.0, 0.5)).report()
        d = rep.to_dict()
        for key in (
            "point",
            "g",
            "B",
            "H",
            "lambda",
            "eta",
            "A",
            "normA2",
            "lapLambda",
            "gradLambda",
            "ricEtaEta",
        ):
            assert key in d
        assert d["ricEtaEta"] == 0.0


class TestSphereSlice:
    def test_cmc(self, sphere_slice):
        # lambda == r at every chart point
        for r in (1.0, 2.0):
            spec = sphere_slice(r)
            lams = [PointGeometry(spec, p).lam for p in SLICE_POINTS]
            assert max(abs(l - r) for l in lams) < 1e-10

    def test_flat_lambda(self, sphere_slice):
        pg = PointGeometry(sphere_slice(1.7), (0.3, -0.2))
        assert np.allclose(pg.grad_lam_amb, 0.0, atol=1e-9)
        assert pg.lap_lam == pytest.approx(0.0, abs=1e-7)

    def test_norm_a2(self, sphere_slice):
        pg = PointGeometry(sphere_slice(1.0), (0.3, -0.2))
        assert pg.normA2 == pytest.approx(2.0, abs=1e-8)

    def test_ric_eta_eta(self, sphere_slice):
        pg = PointGeometry(sphere_slice(1.0), (0.0, 0.0))
        assert pg.ric_eta_eta == 2.0


class TestCone:
    def test_closed_forms(self, cone):
        for r in (1.0, 2.0):
            spec = cone(r)
            for u, v in CONE_POINTS:
                pg = PointGeometry(spec, (u, v))
                lam = 1.0 / (2.0 * r * math.sqrt(1 + r * r) * u)
                a2 = 1.0 / (r * r * (1 + r * r) * u * u)
                lap = 1.0 / (2.0 * r * (1 + r * r) ** 1.5 * u**3)
                assert pg.lam == pytest.approx(lam, rel=1e-9)
                assert pg.normA2 == pytest.approx(a2, rel=1e-9)
                assert pg.lap_lam == pytest.approx(lap, rel=1e-8)

    def test_lap_lambda_r2(self, cone):
        assert PointGeometry(cone(2.0), (1.0, 0.3)).lap_lam == pytest.approx(
            1.0 / (4.0 * 5.0**1.5), rel=1e-9
        )

    def test_printed_normal(self, cone):
        # eta = (-cos v, -sin v, r) / sqrt(1 + r^2)
        r = 1.0
        pg = PointGeometry(cone(r), (1.0, 0.7))
        ref = np.array([-math.cos(0.7), -math.sin(0.7), r]) / math.sqrt(1 + r * r)
        assert np.allclose(pg.eta_val, ref, atol=1e-10)

    def test_axis_is_degenerate(self, cone):
        with pytest.raises(DegenerateImmersionError):
            PointGeometry(cone(1.0), (0.0, 1.0))

    def test_wrong_point_arity(self, cone):
        with pytest.raises(UsageError):
            PointGeometry(cone(1.0), (1.0,))
