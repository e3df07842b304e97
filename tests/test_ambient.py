import math

import numpy as np
import pytest

from warpgeo import jet as J
from warpgeo import oracle, warped
from warpgeo.ambient import AmbientChart, WarpEval, spaceform_curvature
from warpgeo.errors import ConfigError, EvalDomainError
from warpgeo.expr import eval_jet, parse
from warpgeo.immersion import immersion


def seed_chart(chart, point, order=2):
    """The chart coordinates at `point` as a jet tensor (size, n)."""
    return J.stack(
        [J.jet_variable(a, float(point[a]), chart.n, order) for a in range(chart.n)]
    )


def metric_factor(chart, x, n_vars):
    """The chart's e^{2 rho} at the chart points x, with q computed from x."""
    return chart.metric_factor(x, n_vars, chart.conformal_factor(x, n_vars))


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
        for model, e2 in (("euclidean", 1.0), ("sphere", 4.0), ("hyperbolic", 4.0)):
            chart = AmbientChart(model, 3)
            assert metric_factor(chart, seed_chart(chart, np.zeros(3)), 3).value == e2

    def test_poincare_ball_boundary(self):
        chart = AmbientChart("hyperbolic", 3)
        for p in ((1.0, 0.0, 0.0), (0.8, 0.6, 0.0)):
            with pytest.raises(EvalDomainError):
                metric_factor(chart, seed_chart(chart, p), chart.n)

    def test_factor_value_matches_jet(self):
        # the jet's value is (2 / (1 + c |x|^2))^2
        for model in ("sphere", "hyperbolic"):
            chart = AmbientChart(model, 3)
            p = (0.3, -0.2, 0.1)
            jet = metric_factor(chart, seed_chart(chart, p), chart.n)
            assert jet.value == pytest.approx((2.0 / (1.0 + chart.c * 0.14)) ** 2)

    @pytest.mark.parametrize("model", ["sphere", "hyperbolic"])
    def test_shared_conformal_factor_is_the_one_computed_at_lower_order(self, model, rng):
        # PointGeometry computes q at order 3 and hands it, truncated, to
        # the order-2 Christoffels: bit for bit the q they would compute
        chart = AmbientChart(model, 3)
        p = rng.uniform(-0.4, 0.4, size=(3, 16))  # a batch of 16 chart points
        x3 = J.stack([J.jet_variable(a, p[a], 3, 3) for a in range(3)])
        x2 = J.trunc(x3, 3, 2)
        q3 = chart.conformal_factor(x3, 3)
        q2 = chart.conformal_factor(x2, 3)
        assert np.array_equal(q3.trunc(2).coeffs, q2.coeffs)
        assert np.array_equal(chart.christoffel(x2, 3, q3), chart.christoffel(x2, 3, q2))
        assert np.array_equal(
            chart.metric_factor(x2, 3, q3).coeffs, chart.metric_factor(x2, 3, q2).coeffs
        )

    @pytest.mark.parametrize("model", ["sphere", "hyperbolic"])
    def test_metric_compatibility(self, model, rng):
        # d_c h_ab = Gamma^d_ca h_db + Gamma^d_cb h_ad
        chart = AmbientChart(model, 3)
        for _ in range(4):
            p = rng.uniform(-0.4, 0.4, size=3)
            x = seed_chart(chart, p, order=2)
            n = chart.n
            q = chart.conformal_factor(x, n)
            e2 = chart.metric_factor(x, n, q)
            h = [[e2 if a == b else 0.0 * e2 for b in range(n)] for a in range(n)]
            gamma = chart.christoffel(x, n, q)[0]
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        lhs = h[a][b].d(c).value
                        rhs = sum(
                            gamma[d][c][a] * h[d][b].value
                            + gamma[d][c][b] * h[a][d].value
                            for d in range(n)
                        )
                        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sphere_ricci_is_spaceform(self, rng, chart_identity_map):
        # Ricci of the chart metric equals (n-1) h
        chart = AmbientChart("sphere", 3)
        ms = chart_identity_map(chart)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, size=3)
            riem, g_val = oracle.curvature_components(ms, p)
            ric = np.einsum("iijk->jk", riem)
            assert np.allclose(ric, (chart.n - 1) * g_val, atol=1e-7)

    def test_spaceform_curvature_formula(self):
        chart = AmbientChart("sphere", 3)
        p = np.array([0.1, 0.2, -0.3])
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        e2 = metric_factor(chart, seed_chart(chart, p), chart.n).value
        out = spaceform_curvature(chart, x, y, y, e2)
        assert np.allclose(out, e2 * x)

    def test_flat_curvature_vanishes(self):
        chart = AmbientChart("euclidean", 3)
        out = spaceform_curvature(
            chart, np.ones(3), np.arange(3.0), np.array([1.0, -1.0, 2.0]), 1.0
        )
        assert np.allclose(out, 0.0)


class TestWarped:
    def test_warp_eval_positive(self):
        with pytest.raises(EvalDomainError):
            WarpEval(0.0, -1.0, 0.0, 0.0)
        with pytest.raises(EvalDomainError):
            WarpEval(0.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "f, f1, f2", [(math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)]
    )
    def test_warp_eval_finite(self, f, f1, f2):
        with pytest.raises(EvalDomainError, match="must be finite"):
            WarpEval(0.0, f, f1, f2)

    @pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
    def test_full_assembly_matches_christoffel_curvature(self, model, rng):
        # R of dt^2 + f^2 h in (t, y) coordinates: the oracle's, from the
        # warped map's codomain Christoffels, against curvature_components
        # of the identity map with the domain metric built here
        chart = AmbientChart(model, 3)
        n = chart.n
        spec = immersion(("u", "v"), ("u", "v", "0.1"), {}, chart)
        for src in ("exp(t)", "sqrt(t+2)", "2+cos(t)"):
            warp = parse(src)
            mapspec = oracle.warped_inclusion_map(
                warped.warped_scene(spec, warp, {}, (-1.0, 1.0))
            )

            def evaluate(var_jets):
                x = J.trunc(J.stack(var_jets), n + 1, var_jets[0].order - 1)
                f = eval_jet(warp, {"t": J.unstack(x[:, 0], n + 1)}, {})
                f2e2 = f * f * metric_factor(chart, x[:, 1:], n + 1)
                G = np.zeros((len(f2e2.coeffs), n + 1, n + 1))
                G[0, 0, 0] = 1.0
                for a in range(n):
                    G[:, a + 1, a + 1] = f2e2.coeffs
                return J.stack(var_jets), G

            warped_metric = oracle.MapSpec(n + 1, n + 1, evaluate, lambda x, n_vars: None)
            point = np.concatenate(([0.3], rng.uniform(-0.4, 0.4, size=n)))
            ref, _ = oracle.curvature_components(warped_metric, point)
            got = oracle.codomain_riemann(mapspec, point)
            assert np.abs(ref).max() > 0.1
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
