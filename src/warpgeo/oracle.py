"""First-principles tension, bitension and Ricci computations.

Everything here is assembled directly from the Euler-Lagrange traces and
Christoffel symbols, with all derivatives supplied by jets: covariant
derivatives of the tension field are obtained by differentiating the
tension pipeline itself on jet-seeded coordinates.  A `MapSpec` is
evaluated once per point for its components and its domain metric.
Ambient curvature uses the exact space-form / warped closed forms, which
isolates the connection assembly as the quantity under test; the tests
check the warped closed form against `curvature_components` of the warped
metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jet as J
from .ambient import spaceform_curvature, warped_curvature_full
from .errors import UsageError
from .expr import eval_jet
from .immersion import (
    PointGeometry,
    christoffels_from_metric,
    induced_metric_jets,
    orthonormal_frame,
)

JET_ORDER = 4


@dataclass(frozen=True)
class MapSpec:
    """A map between chart patches, described by callables.

    evaluate(var_jets)              -> (phi, G): codomain coordinate jets at
                                       the seeds' order, and domain metric
                                       jets one order below
    codomain_christoffel(phi, k)    -> Christoffel jets truncated to order k
                                       (phi passed at full order)
    codomain_curvature(t, a, b, x)  -> value-level R(t, a) b at codomain
                                       point x
    """

    dim: int
    codim: int
    evaluate: object
    codomain_christoffel: object
    codomain_curvature: object


# -- shared helpers -------------------------------------------------------


def _seed(point, dim, order):
    """Jets of the coordinate functions at `point`."""
    return [J.jet_variable(i, float(point[i]), dim, order) for i in range(dim)]


def _pullback_hessian(V, gbar1, dphi, gamma_dom):
    """(nabla^2 V)_{kl}^a of a vector field V along a map phi, as a value
    array of shape (d, d, D).

    V: field components as jets of order >= 2.  gbar1: codomain
    Christoffels along phi as order-1 jets.  dphi: coordinate derivatives
    dphi[k][a] as jets.  gamma_dom: domain Christoffels as jets.
    """
    d, D = len(dphi), len(V)
    dphi1 = [[dphi[k][a].trunc(1) for a in range(D)] for k in range(d)]
    V1 = [v.trunc(1) for v in V]

    # first pull-back covariant derivative of V, retained as order-1 jets
    nV = [[None] * D for _ in range(d)]
    for l in range(d):
        for a in range(D):
            acc = V[a].d(l)
            for b in range(D):
                for c in range(D):
                    acc = acc + gbar1[a][b][c] * dphi1[l][b] * V1[c]
            nV[l][a] = acc
    nV_val = np.array([[nV[l][a].value for a in range(D)] for l in range(d)])

    dphi_val = np.array([[dphi[k][a].value for a in range(D)] for k in range(d)])
    gbar_val = np.array(
        [
            [[gbar1[a][b][c].value for c in range(D)] for b in range(D)]
            for a in range(D)
        ]
    )
    gdom_val = np.array(
        [
            [[gamma_dom[j][k][l].value for l in range(d)] for k in range(d)]
            for j in range(d)
        ]
    )

    # tensorial second covariant derivative
    sec = np.zeros((d, d, D))
    for k in range(d):
        for l in range(d):
            for a in range(D):
                v = nV[l][a].d(k).value
                for b in range(D):
                    for c in range(D):
                        v += gbar_val[a][b][c] * dphi_val[k][b] * nV_val[l][c]
                for j in range(d):
                    v -= gdom_val[j][k][l] * nV_val[j][a]
                sec[k][l][a] = v
    return sec


def _tension_pipeline(mapspec, point):
    """(phi, dphi, G, gamma_dom, tau) at `point`: the components and their
    coordinate derivatives, the domain metric and its Christoffels, and the
    tension field as jets two orders below the seeds."""
    d, D = mapspec.dim, mapspec.codim
    if len(point) != d:
        raise UsageError(f"point has {len(point)} coords, expected {d}")
    phi, G = mapspec.evaluate(_seed(point, d, JET_ORDER))
    Ginv = J.jet_mat_inverse(G)
    gamma_dom = christoffels_from_metric(G, Ginv)  # order - 2
    dphi = [[phi[a].d(k) for a in range(D)] for k in range(d)]

    t_ord = JET_ORDER - 2
    gbar = mapspec.codomain_christoffel(phi, t_ord)
    ginv_t = [[Ginv[i][j].trunc(t_ord) for j in range(d)] for i in range(d)]
    dphi_t = [[dphi[k][a].trunc(t_ord) for a in range(D)] for k in range(d)]
    tau = []
    for a in range(D):
        acc = None
        for k in range(d):
            for l in range(d):
                term = dphi[k][a].d(l)  # order - 2
                for b in range(D):
                    for c in range(D):
                        term = term + gbar[a][b][c] * dphi_t[k][b] * dphi_t[l][c]
                for j in range(d):
                    term = term - gamma_dom[j][k][l] * dphi_t[j][a]
                term = ginv_t[k][l] * term
                acc = term if acc is None else acc + term
        tau.append(acc)
    return phi, dphi, G, gamma_dom, tau


def tension_first_principles(mapspec, point):
    *_, tau = _tension_pipeline(mapspec, point)
    return np.array([t.value for t in tau])


def bitension_first_principles(mapspec, point):
    phi, dphi, G, gamma_dom, tau = _tension_pipeline(mapspec, point)
    d, D = mapspec.dim, mapspec.codim
    tau_val = np.array([t.value for t in tau])
    phi_val = np.array([p.value for p in phi])
    dphi_val = np.array([[dphi[k][a].value for a in range(D)] for k in range(d)])
    g_val = np.array([[G[i][j].value for j in range(d)] for i in range(d)])

    gbar1 = mapspec.codomain_christoffel(phi, 1)
    sec = _pullback_hessian(tau, gbar1, dphi, gamma_dom)

    frame = orthonormal_frame(g_val)
    rough = np.zeros(D)
    curv = np.zeros(D)
    for i in range(d):
        e = frame[:, i]
        rough += np.einsum("k,l,kla->a", e, e, sec)
        amb = e @ dphi_val
        curv += np.asarray(
            mapspec.codomain_curvature(tau_val, amb, amb, phi_val), dtype=float
        )
    return -curv - rough


# -- map constructors -----------------------------------------------------


def inclusion_map(spec):
    """The canonical inclusion of (M, induced g) into its ambient chart."""
    m, n = spec.m, spec.n
    chart = spec.ambient

    def evaluate(var_jets):
        X, _, _, g = induced_metric_jets(spec, var_jets, list(range(m)))
        return X, g

    def codomain_christoffel(phi, order):
        return chart.christoffel([p.trunc(order) for p in phi])

    def codomain_curvature(t_vec, a_vec, b_vec, x):
        return spaceform_curvature(chart, t_vec, a_vec, b_vec, x)

    return MapSpec(m, n, evaluate, codomain_christoffel, codomain_curvature)


def warped_inclusion_map(scene):
    """The inclusion (I x M, dt^2 + f^2 g) -> (I x N, dt^2 + f^2 h),
    (t, x) -> (t, x), in warped-chart coordinates (slot 0 is t)."""
    spec = scene.immersion
    m, n = spec.m, spec.n
    chart = spec.ambient
    slots = list(range(1, m + 1))

    def warp_jet(t_jet):
        return eval_jet(scene.warp, {"t": t_jet}, scene.warp_params)

    def evaluate(var_jets):
        X, _, _, g = induced_metric_jets(spec, var_jets[1:], slots)
        sub = g[0][0].order
        f = warp_jet(var_jets[0]).trunc(sub)
        f2 = f * f
        zero = J.jet_constant(0.0, var_jets[0].n_vars, sub)
        G = [[zero] * (m + 1) for _ in range(m + 1)]
        G[0][0] = J.jet_constant(1.0, var_jets[0].n_vars, sub)
        for i in range(m):
            for j in range(m):
                G[i + 1][j + 1] = f2 * g[i][j]
        return [var_jets[0]] + X, G

    def codomain_christoffel(phi, order):
        t_jet = phi[0]
        f_full = warp_jet(t_jet)
        f = f_full.trunc(order)
        # slot 0 of the domain is t itself, so d/d slot0 is d/dt
        f1 = f_full.d(0).trunc(order)
        x = [p.trunc(order) for p in phi[1:]]
        e2 = chart.metric_factor(x)
        gamma_n = chart.christoffel(x)
        zero = J.jet_constant(0.0, t_jet.n_vars, order)
        D = n + 1
        gbar = [[[zero for _ in range(D)] for _ in range(D)] for _ in range(D)]
        ff1 = f * f1
        f1_over_f = f1 / f
        for a in range(n):
            gbar[0][a + 1][a + 1] = -ff1 * e2
            gbar[a + 1][0][a + 1] = f1_over_f
            gbar[a + 1][a + 1][0] = f1_over_f
            for b in range(n):
                for c in range(n):
                    gbar[a + 1][b + 1][c + 1] = gamma_n[a][b][c]
        return gbar

    def codomain_curvature(t_vec, a_vec, b_vec, x):
        w = scene.warp_at(float(x[0]))
        xt, xn = warped_curvature_full(
            w,
            chart,
            (t_vec[0], t_vec[1:]),
            (a_vec[0], a_vec[1:]),
            (b_vec[0], b_vec[1:]),
            x[1:],
        )
        return np.concatenate(([xt], xn))

    return MapSpec(m + 1, n + 1, evaluate, codomain_christoffel, codomain_curvature)


def submanifold_bitension(spec, point, geometry=None):
    """tau_2 of the canonical inclusion assembled from the submanifold
    closed form: -m sum_i { R(H, e_i) e_i + (nabla^2 H)(e_i, e_i) }."""
    pg = geometry or PointGeometry(spec, point)
    m, n = spec.m, spec.n
    chart = spec.ambient

    gamma_n1 = chart.christoffel([x.trunc(1) for x in pg.X])
    sec = _pullback_hessian(pg.H, gamma_n1, pg.dX, pg.gamma_m)
    trace_sec = np.einsum("kl,kla->a", pg.ginv_val, sec)
    curv = np.zeros(n)
    for k in range(m):
        for l in range(m):
            curv += pg.ginv_val[k][l] * spaceform_curvature(
                chart, pg.H_val, pg.dX_val[k], pg.dX_val[l], pg.X_val
            )
    return -m * (curv + trace_sec)


# -- Ricci curvature from Christoffel symbols -----------------------------


def curvature_components(metric_rule, point):
    """(R^l_{ijk}, g values) with R(d_i, d_j) d_k = R^l_{ijk} d_l, assembled
    as dGamma + Gamma Gamma from metric jets."""
    g = metric_rule(point)
    d = len(g)
    gamma = christoffels_from_metric(g)  # jets, order >= 1
    gamma_val = np.array(
        [
            [[gamma[l][i][j].value for j in range(d)] for i in range(d)]
            for l in range(d)
        ]
    )
    dgamma = np.array(
        [
            [
                [[gamma[l][j][k].d(i).value for k in range(d)] for j in range(d)]
                for i in range(d)
            ]
            for l in range(d)
        ]
    )  # dgamma[l][i][j][k] = d_i Gamma^l_{jk}
    riem = np.zeros((d, d, d, d))
    for l in range(d):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    v = dgamma[l][i][j][k] - dgamma[l][j][i][k]
                    for p in range(d):
                        v += (
                            gamma_val[l][i][p] * gamma_val[p][j][k]
                            - gamma_val[l][j][p] * gamma_val[p][i][k]
                        )
                    riem[l][i][j][k] = v
    g_val = np.array([[g[i][j].value for j in range(d)] for i in range(d)])
    return riem, g_val


def ricci_from_christoffels(metric_rule, point, x_vec):
    """Ric(X, X) by tracing the curvature tensor: Ric_{jk} = R^i_{ijk}."""
    riem, _ = curvature_components(metric_rule, point)
    ric = np.einsum("iijk->jk", riem)
    x = np.asarray(x_vec, dtype=float)
    return float(x @ ric @ x)


# -- metric rules ---------------------------------------------------------


def chart_metric_rule(chart):
    return lambda point: chart.metric(_seed(point, chart.n, JET_ORDER - 1))


def induced_metric_rule(spec):
    evaluate = inclusion_map(spec).evaluate
    return lambda point: evaluate(_seed(point, spec.m, JET_ORDER))[1]


def warped_domain_metric_rule(scene):
    """Metric rule of (I x M, dt^2 + f^2 g) in coordinates (t, u^1..u^m)."""
    evaluate = warped_inclusion_map(scene).evaluate
    return lambda point: evaluate(_seed(point, scene.immersion.m + 1, JET_ORDER))[1]
