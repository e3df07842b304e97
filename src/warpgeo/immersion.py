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


def _check_nondegenerate(g_val, det_val):
    diag = np.diag(g_val)
    scale = float(np.exp(np.mean(np.log(np.maximum(diag, 1e-300)))))
    if not det_val > 1e-12 * scale:
        raise DegenerateImmersionError(
            f"degenerate induced metric, det g = {det_val:g}", det=det_val
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
    """All pointwise quantities of an immersion at one chart point.

    Jets are retained where downstream consumers need further derivatives
    (H, eta, lambda); plain floats/arrays hold everything else.
    """

    def __init__(self, spec, point, order=JET_ORDER):
        if len(point) != spec.m:
            raise UsageError(f"point has {len(point)} coords, expected {spec.m}")
        self.spec = spec
        self.point = tuple(float(p) for p in point)
        m, n = spec.m, spec.n
        var_jets = [
            J.jet_variable(i, self.point[i], m, order) for i in range(m)
        ]
        X, dX, e2, g = induced_metric_jets(spec, var_jets, list(range(m)))
        self.X, self.dX, self.e2, self.g = X, dX, e2, g

        self.detg = J.jet_det(g)
        self.g_val = np.array([[g[i][j].value for j in range(m)] for i in range(m)])
        _check_nondegenerate(self.g_val, self.detg.value)
        self.ginv = J.jet_mat_inverse(g, det=self.detg)
        self.ginv_val = np.array(
            [[self.ginv[i][j].value for j in range(m)] for i in range(m)]
        )
        self.X_val = np.array([x.value for x in X])
        self.dX_val = np.array([[dX[i][a].value for a in range(n)] for i in range(m)])
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
        self.H_val = np.array([h.value for h in self.H])
        self.B_val = np.array(
            [[[self.B[i][j][a].value for a in range(n)] for j in range(m)] for i in range(m)]
        )
        self.normH = float(np.sqrt(self.e2_val * np.dot(self.H_val, self.H_val)))

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
        self.eta_val = np.array([e.value for e in self.eta])

        lam = self.H[0] * self.eta[0]
        for a in range(1, n):
            lam = lam + self.H[a] * self.eta[a]
        self.lam_jet = self.e2.trunc(2) * lam
        self.lam = self.lam_jet.value

        # scalar second fundamental form and shape operator
        self.b_val = np.array(
            [
                [self.e2_val * float(np.dot(self.B_val[i][j], self.eta_val)) for j in range(m)]
                for i in range(m)
            ]
        )
        self.S_val = self.ginv_val @ self.b_val  # mixed shape operator
        self.normA2 = float(np.trace(self.S_val @ self.S_val))
        L = np.linalg.cholesky(self.g_val)
        self.frame = np.linalg.inv(L).T  # e_i = frame[:, i] on coordinate basis
        self.A_frame = self.frame.T @ self.b_val @ self.frame

        # gradient and Laplacian of the mean curvature function
        dlam = [self.lam_jet.d(j) for j in range(m)]
        self.dlam_val = np.array([d.value for d in dlam])
        self.grad_lam = self.ginv_val @ self.dlam_val  # intrinsic components
        self.grad_lam_amb = self.dX_val.T @ self.grad_lam

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
