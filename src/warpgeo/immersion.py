"""Pointwise extrinsic geometry of a parametrized immersion X: U -> N.

Everything is evaluated through order-4 jets seeded on the chart
variables, so the mean curvature function becomes an order-2 jet and its
intrinsic gradient and Laplace-Beltrami derivative come out exactly (no
nested finite differencing).  Laplacian sign convention: div o grad.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import jet as J
from .ambient import AmbientChart
from .errors import ConfigError, DegenerateImmersionError, UsageError
from .expr import eval_jet, free_symbols, parse

JET_ORDER = 4


@dataclass(frozen=True)
class ImmersionSpec:
    variables: tuple
    components: tuple  # ExprAst per ambient coordinate
    params: MappingProxyType
    ambient: AmbientChart

    def __post_init__(self):
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

    @property
    def m(self):
        return len(self.variables)

    @property
    def n(self):
        return self.ambient.n

    @property
    def is_hypersurface(self):
        return self.n == self.m + 1

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
    """Immersion components, coordinate tangents and induced metric as jets.

    `var_jets` are pre-seeded jets for the chart variables (possibly living
    in a larger jet space, e.g. with a leading t slot); `slots` gives the
    jet-space coordinate index of each chart variable.  Returns
    (X, dX, e2rho, g) where the metric jets are one order below X.
    """
    m, n = spec.m, spec.n
    env = dict(zip(spec.variables, var_jets))
    X = [eval_jet(comp, env, spec.params) for comp in spec.components]
    dX = [[X[a].d(slots[i]) for a in range(n)] for i in range(m)]
    sub_order = X[0].order - 1
    e2 = spec.ambient.metric_factor([x.trunc(sub_order) for x in X])
    g = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = dX[i][0] * dX[j][0]
            for a in range(1, n):
                acc = acc + dX[i][a] * dX[j][a]
            g[i][j] = g[j][i] = e2 * acc
    return X, dX, e2, g


def christoffels_from_metric(g, ginv=None):
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); the
    result is one order below the metric jets."""
    d = len(g)
    if ginv is None:
        ginv = J.jet_mat_inverse(g)
    order = g[0][0].order - 1
    dg = [[[g[i][j].d(k) for j in range(d)] for i in range(d)] for k in range(d)]
    ginv_t = [[ginv[i][j].trunc(order) for j in range(d)] for i in range(d)]
    gamma = [[[None] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                acc = None
                for l in range(d):
                    term = ginv_t[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    acc = term if acc is None else acc + term
                gamma[k][i][j] = gamma[k][j][i] = 0.5 * acc
    return gamma


def orthonormal_frame(g_val):
    """Gram-Schmidt on the coordinate fields, as the coefficient matrix E
    with e_i = sum_k E[k, i] d_k (stacked over any leading batch axes)."""
    return mT(np.linalg.inv(np.linalg.cholesky(g_val)))


# -- the float stage: value arrays with the batch axes first --------------
# Sums over an index run in index order, and matrix products act matrix by
# matrix, so a batch gives the same values as its points one by one.


def _values(jets, depth):
    """Values of a `depth`-deep nested list of jets as one array of shape
    (*batch, *index shape)."""
    shape = []
    level = jets
    for _ in range(depth):
        shape.append(len(level))
        level = level[0]
    for _ in range(depth - 1):
        jets = [j for row in jets for j in row]
    rows = [j.coeffs[0] for j in jets]
    if any(r.ndim for r in rows):
        stacked = np.stack(np.broadcast_arrays(*rows), axis=-1)
    else:
        stacked = np.array(rows)
    return stacked.reshape(stacked.shape[:-1] + tuple(shape))


def per_point(x, k):
    """A per-point scalar (a float or a batch array) shaped to broadcast
    against arrays with `k` index axes after the batch axes."""
    return np.asarray(x)[(...,) + (None,) * k]


def mT(a):
    """The transpose of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def matvec(mat, vec):
    """mat @ vec for each point of a batch of matrices and vectors."""
    return (mat @ vec[..., None])[..., 0]


def _sum_last(v):
    acc = v[..., 0]
    for k in range(1, v.shape[-1]):
        acc = acc + v[..., k]
    return acc


def vdot(x, y):
    """sum_a x[..., a] y[..., a]."""
    return _sum_last(x * y)


def _check_nondegenerate(g_val, det_val):
    diag = np.diagonal(g_val, axis1=-2, axis2=-1)
    scale = np.exp(np.mean(np.log(np.maximum(diag, 1e-300)), axis=-1))
    det = J.first_where(det_val, ~(det_val > 1e-12 * scale))
    if det is not None:
        raise DegenerateImmersionError(
            f"degenerate induced metric, det g = {det:g}", det=det
        )


def _cofactor_normal(dX_t, m, n):
    """h-orthogonal normal of a hypersurface via cofactor expansion; the
    frame (dX_1, ..., dX_m, w) is positively oriented in the chart."""
    w = []
    for a in range(n):
        minor = [[dX_t[i][b] for b in range(n) if b != a] for i in range(m)]
        det = J.jet_det(minor)
        if (m + a) % 2 == 1:
            det = -det
        w.append(det)
    return w


class PointGeometry:
    """All pointwise quantities of an immersion at one chart point, or at
    a batch of points in one pass.

    `point` holds the m chart coordinates, each a float or an array over
    the batch (all of one shape).  Jets are retained where downstream
    consumers need further derivatives (H, eta, lambda); plain
    floats/arrays hold everything else, with the batch axes first (g_val
    has shape (*batch, m, m)).  A batch gives the same values as its points
    one by one; an error names the first point that fails a check.
    """

    def __init__(self, spec, point):
        if len(point) != spec.m:
            raise UsageError(f"point has {len(point)} coords, expected {spec.m}")
        self.spec = spec
        coords = [np.asarray(p, dtype=float) for p in point]
        self.point = tuple(c if c.ndim else float(c) for c in coords)
        m, n = spec.m, spec.n
        var_jets = [
            J.jet_variable(i, self.point[i], m, JET_ORDER) for i in range(m)
        ]
        X, dX, e2, g = induced_metric_jets(spec, var_jets, list(range(m)))
        self.X, self.dX, self.e2, self.g = X, dX, e2, g

        self.detg = J.jet_det(g)
        self.g_val = _values(g, 2)
        _check_nondegenerate(self.g_val, self.detg.value)
        self.ginv = J.jet_mat_inverse(g, det=self.detg)
        self.ginv_val = _values(self.ginv, 2)
        self.X_val = _values(X, 1)
        self.dX_val = _values(dX, 2)
        self.e2_val = self.e2.value

        self.gamma_m = christoffels_from_metric(g, self.ginv)  # order 2
        ginv2 = [[self.ginv[i][j].trunc(2) for j in range(m)] for i in range(m)]

        # Second fundamental form and mean curvature: order 2
        dX2 = [[dX[i][a].trunc(2) for a in range(n)] for i in range(m)]
        ddX = [
            [[dX[i][a].d(j) for a in range(n)] for j in range(m)] for i in range(m)
        ]
        gamma_n = spec.ambient.christoffel([x.trunc(2) for x in X])
        self.B = [[[None] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                for a in range(n):
                    acc = ddX[i][j][a]
                    for b in range(n):
                        for c in range(n):
                            acc = acc + gamma_n[a][b][c] * dX2[i][b] * dX2[j][c]
                    for k in range(m):
                        acc = acc - self.gamma_m[k][i][j] * dX2[k][a]
                    self.B[i][j][a] = self.B[j][i][a] = acc
        self.H = []
        for a in range(n):
            acc = None
            for i in range(m):
                for j in range(m):
                    term = ginv2[i][j] * self.B[i][j][a]
                    acc = term if acc is None else acc + term
            self.H.append(acc * (1.0 / m))
        self.H_val = _values(self.H, 1)
        self.B_val = _values(self.B, 3)
        self.normH = np.sqrt(self.e2_val * vdot(self.H_val, self.H_val))

        if spec.is_hypersurface:
            self._hypersurface_fields(dX2, ginv2)

    def _hypersurface_fields(self, dX2, ginv2):
        spec = self.spec
        m, n = spec.m, spec.n
        w = _cofactor_normal(dX2, m, n)
        norm2 = w[0] * w[0]
        for a in range(1, n):
            norm2 = norm2 + w[a] * w[a]
        wnorm = J.sqrt(self.e2.trunc(2) * norm2)
        self.eta = [wa / wnorm for wa in w]
        self.eta_val = _values(self.eta, 1)

        lam = self.H[0] * self.eta[0]
        for a in range(1, n):
            lam = lam + self.H[a] * self.eta[a]
        self.lam_jet = self.e2.trunc(2) * lam
        self.lam = self.lam_jet.value

        # scalar second fundamental form and shape operator
        self.b_val = per_point(self.e2_val, 2) * vdot(
            self.B_val, self.eta_val[..., None, None, :]
        )
        self.S_val = self.ginv_val @ self.b_val  # mixed shape operator
        self.normA2 = _sum_last(
            np.diagonal(self.S_val @ self.S_val, axis1=-2, axis2=-1)
        )
        self.frame = orthonormal_frame(self.g_val)
        self.A_frame = mT(self.frame) @ self.b_val @ self.frame

        # gradient and Laplacian of the mean curvature function
        dlam = [self.lam_jet.d(j) for j in range(m)]
        self.dlam_val = _values(dlam, 1)
        self.grad_lam = matvec(self.ginv_val, self.dlam_val)  # intrinsic components
        self.grad_lam_amb = matvec(mT(self.dX_val), self.grad_lam)

        sqrt_detg = J.sqrt(self.detg.trunc(1))
        ginv1 = [[self.ginv[i][j].trunc(1) for j in range(m)] for i in range(m)]
        div = 0.0
        for i in range(m):
            flux = None
            for j in range(m):
                term = sqrt_detg * ginv1[i][j] * dlam[j]
                flux = term if flux is None else flux + term
            div += flux.d(i).value
        self.lap_lam = div / sqrt_detg.value

        self.ric_eta_eta = (spec.n - 1) * spec.ambient.c

    # -- conveniences -----------------------------------------------------

    def require_hypersurface(self):
        if not self.spec.is_hypersurface:
            raise UsageError(
                f"hypersurface-only quantity requested for m={self.spec.m}, n={self.spec.n}"
            )

    def report(self):
        self.require_hypersurface()
        return GeometryReport(
            point=self.point,
            g=self.g_val,
            B=self.B_val,
            H=self.H_val,
            lam=self.lam,
            eta=self.eta_val,
            A=self.A_frame,
            normA2=self.normA2,
            lap_lambda=self.lap_lam,
            grad_lambda=self.grad_lam_amb,
            ric_eta_eta=self.ric_eta_eta,
        )


@dataclass(frozen=True)
class GeometryReport:
    point: tuple
    g: np.ndarray
    B: np.ndarray
    H: np.ndarray
    lam: float
    eta: np.ndarray
    A: np.ndarray
    normA2: float
    lap_lambda: float
    grad_lambda: np.ndarray
    ric_eta_eta: float

    def to_dict(self):
        return {
            "point": list(self.point),
            "g": self.g.tolist(),
            "B": self.B.tolist(),
            "H": self.H.tolist(),
            "lambda": self.lam,
            "eta": self.eta.tolist(),
            "A": self.A.tolist(),
            "normA2": self.normA2,
            "lapLambda": self.lap_lambda,
            "gradLambda": self.grad_lambda.tolist(),
            "ricEtaEta": self.ric_eta_eta,
        }
