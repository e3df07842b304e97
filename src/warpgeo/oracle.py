"""First-principles tension, bitension and Ricci computations.

Everything here is assembled directly from the Euler-Lagrange traces and
Christoffel symbols, with all derivatives supplied by jets: covariant
derivatives of the tension field are obtained by differentiating the
tension pipeline itself on jet-seeded coordinates.  Every entry takes a
`MapSpec` and seeds it itself; the map is evaluated once per point for its
components and its domain metric.  The domain curvature comes from the
Christoffels of that one pipeline (`first_principles`,
`curvature_components`), and the ambient curvature from the map's own
codomain Christoffels, seeded at phi(p) and assembled as dGamma + Gamma
Gamma by the same `riemann`, so the oracle borrows no closed form.

The base it shares with the closed forms is `induced_metric_jets`,
`metric_inverse`, `christoffels_from_metric`, `second_fundamental_form`,
`orthonormal_frame` and `values` of `immersion`, and `_pullback_hessian`
here; tests/test_independence.py fences it and checks it against the
Gauss equation.

Batches: a point's coordinates are floats, or arrays over a batch of
points broadcast to one shape (t samples of a warped map, say), as for
`PointGeometry`.  Jet tensors keep the batch axes last, and every value
an entry returns puts them first: tau has shape (*batch, D) and R^l_{ijk}
(*batch, d, d, d, d).  The float stage is np.einsum over batch-first
values, which adds each point's terms in the order it does for that point
alone, so each row of a batch equals the oracle at its point bit for bit.
A family of warps over one immersion is one more batch axis: a scene whose
warp_jet evaluates warp i on row i of a t of shape (warps, samples) gives,
in row i, the oracle of warp i's own map (`verify` runs its warps so).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jet as J
from .ambient import spaceform_curvature
from .errors import UsageError, as_value, range_policy
from .immersion import (
    JET_ORDER,
    PointGeometry,
    christoffels_from_metric,
    induced_metric_jets,
    metric_inverse,
    orthonormal_frame,
    second_fundamental_form,
    values,
)

# curvature_components and codomain_riemann seed here: `riemann` reads
# Christoffel symbols, two orders below the seeds, at order 1
RIEMANN_ORDER = 3


@dataclass(frozen=True)
class MapSpec:
    """A map between chart patches, described by callables.

    evaluate(var_jets) -> (phi, G): jet tensors of the codomain coordinates
        (size, codim) at the seeds' order, and of the domain metric (size',
        dim, dim) one order below.
    codomain_christoffel(x, n_vars) -> the codomain's Christoffel jet tensor
        (size, codim, codim, codim) at the jet tensor x of codomain points
        over n_vars variables, two orders below x, or None where they vanish.

    The one Christoffel callable serves the pull-back along phi (n_vars =
    dim) and the curvature at phi(p) on seeded codomain coordinates (n_vars
    = codim), so codim is at most `jet.MAX_VARS`: a larger codomain is the
    jet layer's ConfigError.
    """

    dim: int
    codim: int
    evaluate: object
    codomain_christoffel: object


# -- shared helpers -------------------------------------------------------


def _seed(point, dim, order):
    """Jets of the coordinate functions at `point`, whose coordinates are
    floats or arrays over a batch.  The arrays are broadcast to one batch
    shape; a float is seeded as one value, so what reads only floats (a
    warped map's point of M under a batch of t) is evaluated once, and
    broadcasts against the batch where it meets it."""
    coords = [np.asarray(point[i], dtype=float) for i in range(dim)]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    return [
        J.jet_variable(i, np.broadcast_to(c, shape) if c.ndim else float(c), dim, order)
        for i, c in enumerate(coords)
    ]


def _pullback_hessian(V, gbar, dphi, gamma_dom, n_vars):
    """(nabla^2 V)_{kl}^a of a vector field V along a map phi, as a value
    array of shape (*batch, d, d, D), over the d = n_vars domain variables.

    Jet tensors: V (size, D) the field at order 2; gbar (size, D, D, D)
    the codomain Christoffels along phi at order 2, or None where they
    vanish; dphi (size, d, D) the coordinate derivatives dphi_k^a;
    gamma_dom (size, d, d, d) the domain Christoffels.
    """
    d = n_vars
    # first pull-back covariant derivative of V, retained as order-1 jets
    nV = J.gradient(V, d, range(d))  # nV[l, a] = d_l V^a
    if gbar is not None:
        gV = J.contract("abc,c->ab", J.trunc(gbar, d, 1), J.trunc(V, d, 1), d)
        nV = nV + J.contract("ab,lb->la", gV, J.trunc(dphi, d, 1), d)

    # tensorial second covariant derivative, on values
    nV_val = values(nV, 2)
    sec = values(J.gradient(nV, d, range(d)), 3)  # sec[k, l, a] = d_k nV[l, a]
    sec = sec - np.einsum("...jkl,...ja->...kla", values(gamma_dom, 3), nV_val)
    if gbar is not None:
        sec = sec + np.einsum(
            "...abc,...kb,...lc->...kla", values(gbar, 3), values(dphi, 2), nV_val
        )
    return sec


def _tension_pipeline(mapspec, point, order):
    """(phi, dphi, G, gamma_dom, gbar, tau) at `point` as jet tensors, from
    coordinates seeded at `order`: the components and their coordinate
    derivatives, the domain metric and its Christoffels, the codomain
    Christoffels along phi (None where they vanish), and the tension field;
    gamma_dom, gbar and tau are two orders below the seeds.  A truncated
    Taylor coefficient of degree k depends only on coefficients of degree
    <= k, so every coefficient kept is the same at any seed order."""
    d = mapspec.dim
    if len(point) != d:
        raise UsageError(f"point has {len(point)} coords, expected {d}")
    phi, G = mapspec.evaluate(_seed(point, d, order))
    Ginv = metric_inverse(G, d)
    gamma_dom = christoffels_from_metric(G, Ginv, d)
    dphi = J.gradient(phi, d, range(d))  # dphi[k, a] = d_k phi^a
    gbar = mapspec.codomain_christoffel(phi, d)
    _, tau = second_fundamental_form(dphi, gamma_dom, gbar, Ginv, d)
    return phi, dphi, G, gamma_dom, gbar, tau


def tension_first_principles(mapspec, point):
    """tau at `point`: the pipeline seeded at order 2, as tau is read at
    order 0."""
    with range_policy():
        *_, tau = _tension_pipeline(mapspec, point, 2)
        return values(tau, 1)


@dataclass(frozen=True)
class FirstPrinciples:
    """What the oracle computes of a map at a point, or at a batch of
    points, from one pipeline: tau, tau_2 and R^l_{ijk} of the domain
    metric, all as values with the batch axes first."""

    tension: np.ndarray
    bitension: np.ndarray
    riemann: np.ndarray


def first_principles(mapspec, point):
    """tau, tau_2 and the domain curvature of `mapspec` at `point`, from one
    pipeline seeded at order 4 (the Hessian of tau reads tau at order 2)."""
    with range_policy():
        phi, dphi, G, gamma_dom, gbar, tau = _tension_pipeline(mapspec, point, JET_ORDER)
        sec = _pullback_hessian(tau, gbar, dphi, gamma_dom, mapspec.dim)

        tau_val = values(tau, 1)
        frame = orthonormal_frame(values(G, 2))
        rough = np.einsum("...ki,...li,...kla->...a", frame, frame, sec)
        riem = codomain_riemann(mapspec, phi[0])
        if riem is None:
            bitension = -rough
        else:
            # sum_e R(tau, dphi e) dphi e, with R(d_i, d_j) d_k = R^l_ijk d_l
            amb = frame.mT @ values(dphi, 2)
            curv = np.einsum("...lijk,...i,...ej,...ek->...l", riem, tau_val, amb, amb)
            bitension = -curv - rough
        return FirstPrinciples(tau_val, bitension, riemann(gamma_dom, mapspec.dim))


def bitension_first_principles(mapspec, point):
    """tau_2 of `first_principles`.  The package does not call it; tests
    and the benchmark's tracer (bench/tracer.py) read it."""
    return first_principles(mapspec, point).bitension


def codomain_riemann(mapspec, x):
    """R^l_{ijk} of the codomain at the point x, from the map's Christoffel
    symbols on codomain coordinates seeded at RIEMANN_ORDER; None where
    they vanish."""
    n = mapspec.codim
    gamma = mapspec.codomain_christoffel(J.stack(_seed(x, n, RIEMANN_ORDER)), n)
    return None if gamma is None else riemann(gamma, n)


# -- map constructors -----------------------------------------------------


def inclusion_map(spec):
    """The canonical inclusion of (M, induced g) into its ambient chart."""
    m, n = spec.m, spec.n
    chart = spec.ambient

    def evaluate(var_jets):
        X, _, _, _, g = induced_metric_jets(spec, var_jets, range(m))
        return X, g

    def codomain_christoffel(x, n_vars):
        x = J.trunc(x, n_vars, J.order_of(x, n_vars) - 2)
        return chart.christoffel(x, n_vars, chart.conformal_factor(x, n_vars))

    return MapSpec(m, n, evaluate, codomain_christoffel)


def warped_inclusion_map(scene):
    """The inclusion (I x M, dt^2 + f^2 g) -> (I x N, dt^2 + f^2 h),
    (t, x) -> (t, x), in warped-chart coordinates (slot 0 is t).

    It reads only `scene.immersion`, the ImmersionSpec of M in N, and
    `scene.warp_jet(t)`, the warp as a jet of the jet t with t's batch
    shape, so any object with those two serves: a WarpedScene, or a
    family of them whose warp_jet evaluates one scene per row of t."""
    spec = scene.immersion
    m, n = spec.m, spec.n
    d = m + 1
    chart = spec.ambient
    slots = range(1, d)

    def evaluate(var_jets):
        # X and g read only M's coordinates, t and f only t: each is formed
        # at its own batch, and f^2 g at the two broadcast, the batch of phi
        X, _, _, _, g = induced_metric_jets(spec, var_jets[1:], slots)
        t = var_jets[0]
        f = scene.warp_jet(t).trunc(t.order - 1)
        fg = J.contract("ij,->ij", g, (f * f).coeffs, d)
        G = np.zeros(fg.shape[:1] + (d, d) + fg.shape[3:])
        G[0, 0, 0] = 1.0
        G[:, 1:, 1:] = fg
        return J.stack([t, *(J.unstack(X[:, a], d) for a in range(n))]), G

    def codomain_christoffel(tx, n_vars):
        order = J.order_of(tx, n_vars) - 2
        # slot 0 is t itself, both along phi and at a seeded phi(p), so
        # d/d slot0 of f(t) is f'
        f_up = scene.warp_jet(J.unstack(J.trunc(tx[:, 0], n_vars, order + 1), n_vars))
        f, f1 = f_up.trunc(order), f_up.d(0)
        x = J.trunc(tx[:, 1:], n_vars, order)
        q = chart.conformal_factor(x, n_vars)
        e2 = chart.metric_factor(x, n_vars, q)
        eye = np.eye(n)
        gbar = np.zeros((len(x), n + 1, n + 1, n + 1) + x.shape[2:])
        gbar[:, 0, 1:, 1:] = np.einsum(
            "z...,ab->zab...", (-(f * f1) * e2).coeffs, eye
        )
        f1_over_f = np.einsum("z...,ab->zab...", (f1 / f).coeffs, eye)
        gbar[:, 1:, 0, 1:] = f1_over_f
        gbar[:, 1:, 1:, 0] = f1_over_f
        gamma_n = chart.christoffel(x, n_vars, q)
        if gamma_n is not None:
            gbar[:, 1:, 1:, 1:] = gamma_n
        return gbar

    return MapSpec(d, n + 1, evaluate, codomain_christoffel)


def submanifold_bitension(pg: PointGeometry):
    """tau_2 of the canonical inclusion at the point of `pg`, assembled from
    the submanifold closed form:
    -m sum_i { R(H, e_i) e_i + (nabla^2 H)(e_i, e_i) }.

    The curvature trace sum_kl g^kl R(H, dX_k) dX_l is one
    `spaceform_curvature` call over the m^2 tangent pairs (k, l), whose
    terms are added in (k, l) order from +0.0."""
    m, n = pg.spec.m, pg.spec.n
    with range_policy():
        sec = _pullback_hessian(pg.H_c, pg.gamma_n_c, pg.dX_c, pg.gamma_c, m)
        trace_sec = np.einsum("kl,kla->a", pg.ginv_val, sec)
        tangents = pg.dX_val
        terms = pg.ginv_val[..., None] * spaceform_curvature(
            pg.spec.ambient, pg.H_val, tangents[:, None], tangents[None, :], pg.e2_val
        )
        curv = np.zeros(n)
        for term in terms.reshape(m * m, n):
            curv += term
        return -m * (curv + trace_sec)


# -- curvature from Christoffel symbols ----------------------------------


def curvature_components(mapspec, point):
    """(R^l_{ijk}, g values) of the domain metric of `mapspec` at `point`,
    with R(d_i, d_j) d_k = R^l_{ijk} d_l, assembled as dGamma + Gamma Gamma
    from the Christoffels of the pipeline seeded at RIEMANN_ORDER.  The
    package does not call it; tests and the benchmark's tracer read it."""
    with range_policy():
        _, _, G, gamma_dom, _, _ = _tension_pipeline(mapspec, point, RIEMANN_ORDER)
        return riemann(gamma_dom, mapspec.dim), values(G, 2)


def riemann(gamma, n_vars):
    """R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk
    - Gamma^l_jp Gamma^p_ik as values (*batch, d, d, d, d), from a
    Christoffel jet tensor (size, d, d, d, *batch) of order >= 1 over its
    d = n_vars coordinates."""
    gv = values(gamma, 3)  # gv[l, i, j] = Gamma^l_ij
    # [i, l, j, k] = d_i Gamma^l_jk
    dgamma = values(J.gradient(gamma, n_vars, range(n_vars)), 4)
    return (
        np.einsum("...iljk->...lijk", dgamma)
        - np.einsum("...jlik->...lijk", dgamma)
        + np.einsum("...lip,...pjk->...lijk", gv, gv)
        - np.einsum("...ljp,...pik->...lijk", gv, gv)
    )


def ricci(riem, x_vec):
    """Ric(X, X) by tracing the curvature tensor, Ric_{jk} = R^i_{ijk}: a
    float for R of one point (d, d, d, d), an array for R over a batch
    (*batch, d, d, d, d), each entry its point's float bit for bit."""
    ric = np.einsum("...iijk->...jk", riem)
    x = np.asarray(x_vec, dtype=float)
    r = np.vecdot(np.vecmat(x, ric), x)
    return as_value(r)
