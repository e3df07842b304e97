import math

import numpy as np
import pytest

from warpgeo import jet as J
from warpgeo import oracle
from warpgeo.ambient import (
    AmbientChart,
    WarpEval,
    spaceform_curvature,
    warped_curvature_full,
)
from warpgeo.errors import ConfigError, EvalDomainError
from warpgeo.expr import eval_jet, parse


def seed_chart(chart, point, order=2):
    return [
        J.jet_variable(a, float(point[a]), chart.n, order) for a in range(chart.n)
    ]


class TestCharts:
    @pytest.mark.parametrize(
        "model,c", [("euclidean", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0)]
    )
    def test_curvature_constant(self, model, c):
        assert AmbientChart(model, 3).c == c

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            AmbientChart("lorentzian", 4)
        with pytest.raises(ConfigError):
            AmbientChart("sphere", 1)

    def test_factor_at_origin(self):
        origin = np.zeros(3)
        assert AmbientChart("euclidean", 3).metric_factor_value(origin) == 1.0
        assert AmbientChart("sphere", 3).metric_factor_value(origin) == 4.0
        assert AmbientChart("hyperbolic", 3).metric_factor_value(origin) == 4.0

    def test_poincare_ball_boundary(self):
        chart = AmbientChart("hyperbolic", 3)
        with pytest.raises(EvalDomainError):
            chart.metric_factor_value(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(EvalDomainError):
            chart.metric_factor(seed_chart(chart, (0.8, 0.6, 0.0)))

    def test_factor_value_matches_jet(self):
        for model in ("sphere", "hyperbolic"):
            chart = AmbientChart(model, 3)
            p = (0.3, -0.2, 0.1)
            jet = chart.metric_factor(seed_chart(chart, p))
            assert jet.value == pytest.approx(chart.metric_factor_value(np.array(p)))

    @pytest.mark.parametrize("model", ["sphere", "hyperbolic"])
    def test_metric_compatibility(self, model, rng):
        # d_c h_ab = Gamma^d_ca h_db + Gamma^d_cb h_ad
        chart = AmbientChart(model, 3)
        for _ in range(4):
            p = rng.uniform(-0.4, 0.4, size=3)
            x = seed_chart(chart, p, order=2)
            h = chart.metric(x)
            gamma = chart.christoffel(x)
            n = chart.n
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        lhs = h[a][b].d(c).value
                        rhs = sum(
                            gamma[d][c][a].value * h[d][b].value
                            + gamma[d][c][b].value * h[a][d].value
                            for d in range(n)
                        )
                        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sphere_ricci_is_spaceform(self, rng):
        # Ricci of the chart metric equals (n-1) h
        chart = AmbientChart("sphere", 3)
        rule = oracle.chart_metric_rule(chart)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, size=3)
            riem, g_val = oracle.curvature_components(rule, p)
            ric = np.einsum("iijk->jk", riem)
            assert np.allclose(ric, (chart.n - 1) * g_val, atol=1e-7)

    def test_spaceform_curvature_formula(self):
        chart = AmbientChart("sphere", 3)
        p = np.array([0.1, 0.2, -0.3])
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        e2 = chart.metric_factor_value(p)
        out = spaceform_curvature(chart, x, y, y, p)
        assert np.allclose(out, e2 * x)

    def test_flat_curvature_vanishes(self):
        chart = AmbientChart("euclidean", 3)
        out = spaceform_curvature(
            chart, np.ones(3), np.arange(3.0), np.array([1.0, -1.0, 2.0]), np.zeros(3)
        )
        assert np.allclose(out, 0.0)


class TestWarped:
    def test_warp_eval_positive(self):
        with pytest.raises(EvalDomainError):
            WarpEval(-1.0, 0.0, 0.0)
        with pytest.raises(EvalDomainError):
            WarpEval(0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "f, f1, f2", [(math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)]
    )
    def test_warp_eval_finite(self, f, f1, f2):
        with pytest.raises(EvalDomainError, match="must be finite"):
            WarpEval(f, f1, f2)

    @pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
    def test_full_assembly_matches_christoffel_curvature(self, model, rng):
        # R of dt^2 + f^2 h in (t, y) coordinates, assembled by the oracle
        # from Christoffel symbols of the metric jets
        chart = AmbientChart(model, 3)
        n = chart.n
        for src in ("exp(t)", "sqrt(t+2)", "2+cos(t)"):
            warp = parse(src)

            def metric_rule(point):
                x = [J.jet_variable(i, point[i], n + 1, 3) for i in range(n + 1)]
                f = eval_jet(warp, {"t": x[0]}, {})
                f2 = f * f
                h = chart.metric(x[1:])
                zero = J.jet_constant(0.0, n + 1, 3)
                G = [[zero] * (n + 1) for _ in range(n + 1)]
                G[0][0] = J.jet_constant(1.0, n + 1, 3)
                for a in range(n):
                    G[a + 1][a + 1] = f2 * h[a][a]
                return G

            point = np.concatenate(([0.3], rng.uniform(-0.4, 0.4, size=n)))
            riem, _ = oracle.curvature_components(metric_rule, point)
            tj = J.jet_variable(0, point[0], 1, 2)
            f = eval_jet(warp, {"t": tj}, {})
            w = WarpEval(f.value, f.partial((1,)), f.partial((2,)))
            for _ in range(3):
                x, y, z = rng.normal(size=(3, n + 1))
                t_part, n_part = warped_curvature_full(
                    w, chart, (x[0], x[1:]), (y[0], y[1:]), (z[0], z[1:]), point[1:]
                )
                got = np.concatenate(([t_part], n_part))
                ref = np.einsum("lijk,i,j,k->l", riem, x, y, z)
                assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_full_assembly_antisymmetric(self, rng):
        chart = AmbientChart("hyperbolic", 3)
        w = WarpEval(1.2, -0.3, 0.5)
        p = np.array([0.1, 0.2, -0.1])
        for _ in range(3):
            x = (float(rng.normal()), rng.normal(size=3))
            y = (float(rng.normal()), rng.normal(size=3))
            z = (float(rng.normal()), rng.normal(size=3))
            t1, n1 = warped_curvature_full(w, chart, x, y, z, p)
            t2, n2 = warped_curvature_full(w, chart, y, x, z, p)
            assert t1 == pytest.approx(-t2, abs=1e-12)
            assert np.allclose(n1, -n2, atol=1e-12)
