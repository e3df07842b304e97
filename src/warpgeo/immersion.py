"""Pointwise extrinsic geometry of a parametrized immersion X: U -> N.

Everything is evaluated through order-4 jets seeded on the chart
variables, so the mean curvature function becomes an order-2 jet and its
intrinsic gradient and Laplace-Beltrami derivative come out exactly (no
nested finite differencing).  Laplacian sign convention: div o grad.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import jet as J
from .ambient import AmbientChart
from .errors import ConfigError, DegenerateImmersionError, EvalDomainError, UsageError
from .errors import as_value, first_failing, range_policy
from .expr import eval_jet, free_symbols, is_name, parse, pretty

JET_ORDER = 4


@dataclass(frozen=True)
class ImmersionSpec:
    variables: tuple
    components: tuple  # ExprAst per ambient coordinate
    params: MappingProxyType
    ambient: AmbientChart

    def __post_init__(self):
        for i, v in enumerate(self.variables):
            if not is_name(v):
                raise ConfigError(f"variable {v!r} is not a name the expressions can read")
            if v in self.variables[:i]:
                raise ConfigError(f"variable {v!r} is listed twice")
            if v in self.params:
                raise ConfigError(f"variable {v!r} is also a param")
        if len(self.components) != self.ambient.n:
            raise ConfigError(
                f"component count {len(self.components)} != ambient dim {self.ambient.n}"
            )
        if not (1 <= self.m <= self.n - 1):
            raise ConfigError(
                f"need 1 <= m <= n-1, got m={self.m}, n={self.n}"
            )
        bound = set(self.variables) | set(self.params)
        for comp in self.components:
            extra = free_symbols(comp) - bound
            if extra:
                raise ConfigError(f"unbound identifiers in component: {sorted(extra)}")

    # computed once when first read: every closed form reads them
    @cached_property
    def m(self):
        return len(self.variables)

    @cached_property
    def n(self):
        return self.ambient.n

    @cached_property
    def is_hypersurface(self):
        return self.n == self.m + 1

    def require_hypersurface(self):
        if not self.is_hypersurface:
            raise UsageError(
                f"hypersurface-only quantity requested for m={self.m}, n={self.n}"
            )

    def with_params(self, **overrides):
        merged = dict(self.params)
        merged.update(overrides)
        return ImmersionSpec(
            self.variables, self.components, MappingProxyType(merged), self.ambient
        )


def immersion(variables, components, params, ambient):
    """Build an ImmersionSpec from DSL source strings."""
    return ImmersionSpec(
        tuple(variables),
        tuple(parse(c) for c in components),
        MappingProxyType(dict(params)),
        ambient,
    )


def induced_metric_jets(spec, var_jets, slots):
    """Immersion components, coordinate tangents and induced metric as jet
    tensors (coefficient arrays, see `jet`).

    `var_jets` are pre-seeded jets for the chart variables (possibly living
    in a larger jet space, e.g. with a leading t slot); `slots` gives the
    jet-space coordinate index of each chart variable.  Returns (X, dX, q,
    e2, g): X of shape (size, n, *batch), and one order below it the
    tangents dX (size', m, n, *batch), the ambient's conformal factor q
    (None for the Euclidean chart) and metric factor e2 = q^2 as jets, and
    the metric g (size', m, m, *batch).  A component whose jets, or whose
    tangent's share of the metric, leave the float range is an
    EvalDomainError naming it.
    """
    n_vars, order = var_jets[0].n_vars, var_jets[0].order
    env = dict(zip(spec.variables, var_jets))
    X = J.stack([eval_jet(comp, env, spec.params) for comp in spec.components])
    bad = ~np.isfinite(X).swapaxes(0, 1).reshape(spec.n, -1).all(axis=1)
    if bad.any():
        raise _overflow(spec, int(np.argmax(bad)))
    dX = J.gradient(X, n_vars, slots)
    x = J.trunc(X, n_vars, order - 1)
    q = spec.ambient.conformal_factor(x, n_vars)
    e2 = spec.ambient.metric_factor(x, n_vars, q)
    g = J.contract("ia,ja->ij", dX, dX, n_vars)
    g = J.contract("ij,->ij", g, e2.coeffs, n_vars)
    if not np.isfinite(g).all():
        # the metric overflows: name the component with the largest tangent
        tangent = np.abs(dX).swapaxes(0, 2).reshape(spec.n, -1).max(axis=1)
        raise _overflow(spec, int(np.argmax(tangent)))
    return X, dX, q, e2, g


def _overflow(spec, a):
    return EvalDomainError(
        f"immersion component {a}, {pretty(spec.components[a])}, leaves the float range"
    )


def christoffels_from_metric(g, ginv, n_vars):
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) of a metric
    g (size, d, d, *batch) over its d = n_vars chart variables, given its
    inverse from metric_inverse; the result (size', d, d, d, *batch) is at
    the inverse's order, one below g."""
    dg = J.gradient(g, n_vars, range(n_vars))  # dg[l, i, j] = d_l g_ij
    # [i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, the batch axes kept last
    first = dg + dg.swapaxes(1, 2) - dg.transpose(0, 2, 3, 1, *range(4, dg.ndim))
    return 0.5 * J.contract("kl,ijl->kij", ginv, first, n_vars)


def covariant_derivative(w, dphi, gamma, gbar, n_vars):
    """nabla_i w_j^a = d_i w_j^a - Gamma^k_ij w_k^a + Gbar^a_bc d_i phi^b
    w_j^c of a 1-form w (size, d, D, *batch) with values along a map phi,
    over d = n_vars chart variables: a jet tensor (size', d, d, D, *batch)
    one order below w, the derivative index first.  With w = dphi it is
    the second fundamental form nabla dphi, whose trace over g^-1 is the
    tension field; with w = d lambda of a function (D = 1, phi and gbar
    None) it is the Hessian, whose trace is the Laplacian.  gamma holds the
    domain Christoffels, gbar the codomain Christoffels along phi or None
    where they vanish; dphi, gamma and gbar are read at the result's order,
    so each may come at that order or above."""
    order = J.order_of(w, n_vars) - 1
    nw = J.gradient(w, n_vars, range(n_vars))
    w = J.trunc(w, n_vars, order)
    nw = nw - J.contract("kij,ka->ija", J.trunc(gamma, n_vars, order), w, n_vars)
    if gbar is not None:
        dphi = J.trunc(dphi, n_vars, order)
        gbar_dphi = J.contract("abc,ib->aci", J.trunc(gbar, n_vars, order), dphi, n_vars)
        nw = nw + J.contract("aci,jc->ija", gbar_dphi, w, n_vars)
    return nw


def metric_inverse(g, n_vars):
    """The inverse of a metric tensor g (size, d, d, *batch), one order
    below g: the order of its Christoffel symbols.

    A degenerate metric is a DegenerateImmersionError.  The float inverse is
    taken of g scaled to a unit diagonal, inv(g) = D inv(D g D) D with
    D = diag(g)^(-1/2): pivoting on a metric whose diagonal spans many
    decades (a cone far from its apex) loses the small entries otherwise."""
    g_val = values(g, 2)
    _check_nondegenerate(g_val)
    s = 1.0 / np.sqrt(g_val.diagonal(axis1=-2, axis2=-1))
    inv0 = s[..., :, None] * np.linalg.inv(s[..., :, None] * g_val * s[..., None, :])
    inv0 = inv0 * s[..., None, :]
    g = J.trunc(g, n_vars, J.order_of(g, n_vars) - 1)
    batch = inv0.ndim - 2  # (*batch, d, d) to (d, d, *batch)
    return J.jet_mat_inverse(g, n_vars, inv0.transpose(batch, batch + 1, *range(batch)))


def orthonormal_frame(g_val):
    """Gram-Schmidt on the coordinate fields, as the coefficient matrix E
    with e_i = sum_k E[k, i] d_k (stacked over any leading batch axes)."""
    return np.linalg.inv(np.linalg.cholesky(g_val)).mT


# -- the float stage: value arrays with the batch axes first --------------
# Sums over an index run in index order, matrix products act matrix by
# matrix, and np.matvec acts vector by vector (np.dot's path for each), so a
# batch gives the same values as its points one by one.


def values(c, depth):
    """The values of a jet tensor with `depth` tensor axes, as a contiguous
    array of shape (*batch, *tensor): matmul takes the same path for a
    batch as for one point only on contiguous operands."""
    v = c[0]
    if v.ndim > depth:
        v = v.transpose(*range(depth, v.ndim), *range(depth))
    return np.ascontiguousarray(v)


def per_point(x, k):
    """A per-point scalar (a float or a batch array) shaped to broadcast
    against arrays with `k` index axes after the batch axes; a float, one
    point's, broadcasts as it is."""
    if type(x) is float:
        return x
    return np.asarray(x)[(...,) + (None,) * k]


def _sum_last(v):
    acc = v[..., 0]
    for k in range(1, v.shape[-1]):
        acc = acc + v[..., k]
    return acc


def vdot(x, y):
    """sum_a x[..., a] y[..., a]."""
    return _sum_last(x * y)


def _trace(mat):
    return _sum_last(mat.diagonal(axis1=-2, axis2=-1))


def _check_nondegenerate(g_val):
    det = np.linalg.det(g_val)
    diag = g_val.diagonal(axis1=-2, axis2=-1)
    # the geometric mean of the diagonal
    scale = np.exp(np.add.reduce(np.log(np.maximum(diag, 1e-300)), axis=-1) / diag.shape[-1])
    if bad := first_failing(det > 1e-12 * scale, det):
        raise DegenerateImmersionError(f"degenerate induced metric, det g = {bad[0]:g}", bad[0])


@lru_cache(maxsize=None)
def _levi_civita(n):
    """The permutation symbol epsilon_{b_1 ... b_n} as an array (n,) * n."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = np.linalg.det(np.eye(n)[list(perm)])  # exactly +-1
    return eps


def hypersurface_normal(dX, n_vars):
    """The normal w_a = epsilon_{b_1 ... b_m a} dX_1^{b_1} ... dX_m^{b_m} of
    the tangents dX (size, m, m + 1, *batch), a jet tensor (size, m + 1,
    *batch) h-orthogonal to every dX_i, with (dX_1, ..., dX_m, w) positively
    oriented.  Each entry of epsilon dX_1 is one signed term, so one einsum
    forms it exactly; each further factor is one contraction."""
    m, n = dX.shape[1], dX.shape[2]
    idx = "abcdefg"[1:n] + "a"  # b_1 ... b_m a
    w = np.einsum(f"{idx},z{idx[0]}...->z{idx[1:]}...", _levi_civita(n), dX[:, 0])
    for i in range(1, m):
        w = J.contract(f"{idx[i:]},{idx[i]}->{idx[i + 1:]}", w, dX[:, i], n_vars)
    return w


class PointGeometry:
    """All pointwise quantities of an immersion at one chart point, or at
    a batch of points in one pass.

    `point` holds the m chart coordinates, each a float or an array over
    the batch (all of one shape).  The batch may also come from the spec's
    params alone, at a point of floats, as in biharmonic.parameter_scan;
    then a quantity that reads no batched param is one value.  Jet tensors
    (coefficient arrays, suffix _c) are retained where downstream consumers
    need further derivatives (the tangents, H, and the Christoffels of the
    chart and of g); a build keeps only the fields something reads after it.
    Plain floats/arrays hold everything else, with the batch axes first
    (g_val has shape (*batch, m, m)).  A batch gives the same values as its
    points one by one; an error names the first point that fails a check.
    """

    def __init__(self, spec, point):
        if len(point) != spec.m:
            raise UsageError(f"point has {len(point)} coords, expected {spec.m}")
        with range_policy():
            self.spec = spec
            coords = [np.asarray(p, dtype=float) for p in point]
            self.point = tuple(as_value(c) for c in coords)
            m = spec.m
            var_jets = [
                J.jet_variable(i, self.point[i], m, JET_ORDER) for i in range(m)
            ]
            X, self.dX_c, q, e2, g = induced_metric_jets(spec, var_jets, range(m))

            self.g_val = values(g, 2)
            ginv_c = metric_inverse(g, m)  # order 2
            self.ginv_val = values(ginv_c, 2)
            self.dX_val = values(self.dX_c, 2)
            self.e2_val = e2.value

            self.gamma_c = christoffels_from_metric(g, ginv_c, m)  # order 2
            self.gamma_n_c = spec.ambient.christoffel(J.trunc(X, m, 2), m, q)

            # second fundamental form B and mean curvature H: order 2
            B = covariant_derivative(self.dX_c, self.dX_c, self.gamma_c, self.gamma_n_c, m)
            self.H_c = J.contract("ij,ija->a", ginv_c, B, m) * (1.0 / m)
            self.H_val = values(self.H_c, 1)
            self.B_val = values(B, 3)
            self.h2 = as_value(self.e2_val * np.vecdot(self.H_val, self.H_val))  # |H|^2_h

            if spec.is_hypersurface:
                self._hypersurface_fields(J.trunc(self.dX_c, m, 2), e2.trunc(2), ginv_c)

    def _hypersurface_fields(self, dX2, e2, ginv_c):
        m = self.spec.m
        w = hypersurface_normal(dX2, m)
        wnorm = J.sqrt(e2 * J.Jet(m, 2, J.contract("a,a->", w, w, m)))
        eta_c = J.contract("a,->a", w, J.reciprocal(wnorm).coeffs, m)
        self.eta_val = values(eta_c, 1)

        lam = e2 * J.Jet(m, 2, J.contract("a,a->", self.H_c, eta_c, m))
        self.lam = lam.value

        # scalar second fundamental form and shape operator
        self.b_val = per_point(self.e2_val, 2) * vdot(
            self.B_val, self.eta_val[..., None, None, :]
        )
        self.S_val = self.ginv_val @ self.b_val  # mixed shape operator
        self.normA2 = _trace(self.S_val @ self.S_val)

        # gradient and Laplacian of the mean curvature function
        dlam = J.gradient(lam.coeffs, m, range(m))
        dlam_val = values(dlam, 1)
        self.grad_lam = np.matvec(self.ginv_val, dlam_val)  # intrinsic components
        self.grad_lam_amb = np.matvec(self.dX_val.mT, self.grad_lam)

        # Delta lambda, the tension of lambda: M -> R, at order 0
        hess = covariant_derivative(dlam[:, :, None], None, self.gamma_c, None, m)
        self.lap_lam = J.contract("ij,ija->a", J.trunc(ginv_c, m, 0), hess, m)[0, 0]

        self.ric_eta_eta = (self.spec.n - 1) * self.spec.ambient.c

    def row(self, i):
        """The one-point geometry of row i of a build over one batch axis,
        equal bit for bit to PointGeometry(spec_i, point_i), spec_i the
        spec with each batched param taken at i.  If g_val is batched, so
        is every array field: a jet tensor on its trailing axis, a value
        array on its leading one (a float at one point).  A float (the
        Euclidean chart's e2_val, say) is kept as it is."""
        out = object.__new__(PointGeometry)
        batched = self.g_val.ndim > 2
        for name, v in vars(self).items():
            if batched and isinstance(v, np.ndarray):
                if name.endswith("_c"):
                    v = np.ascontiguousarray(v[..., i])
                else:
                    v = v[i] if v.ndim > 1 else float(v[i])
            setattr(out, name, v)
        params = {k: float(v[i]) for k, v in self.spec.params.items() if np.ndim(v)}
        out.spec = self.spec.with_params(**params) if params else self.spec
        out.point = tuple(c if type(c) is float else float(c[i]) for c in self.point)
        return out

    # -- conveniences -----------------------------------------------------

    @property
    def A_frame(self):
        """The second fundamental form b in the orthonormal frame of g,
        computed when read: only `analyze` shows it."""
        frame = orthonormal_frame(self.g_val)
        return frame.mT @ self.b_val @ frame
