"""Space-form ambients as conformally flat charts, plus the curvature of
the warped product (I x N, dt^2 + f^2 h).

Charts: Euclidean space (identity chart), the unit sphere via stereographic
projection (conformal factor 2/(1+|x|^2), missing one point) and unit
hyperbolic space via the Poincare ball (2/(1-|x|^2), |x| < 1).  Only unit
curvature models are supported; other radii are obtained by scaling the
immersion instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jet as J
from .errors import ConfigError, EvalDomainError
from .expr import eval_jet

MODELS = ("euclidean", "sphere", "hyperbolic")
_CURVATURE = {"euclidean": 0.0, "sphere": 1.0, "hyperbolic": -1.0}


@dataclass(frozen=True)
class AmbientChart:
    model: str
    n: int

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown ambient model {self.model!r}")
        if self.n < 2:
            raise ConfigError(f"ambient dimension must be >= 2, got {self.n}")

    @property
    def c(self):
        """Sectional curvature constant."""
        return _CURVATURE[self.model]

    # -- conformal factor: h = q^2 delta with q = e^rho ------------------

    def _radial(self, x):
        s = x[0] * x[0]
        for xa in x[1:]:
            s = s + xa * xa
        return s

    def _conformal_factor(self, s):
        """q = 2 / (1 + c s) at squared chart radius s, a jet or a float.
        Not defined for the Euclidean chart, where q = 1."""
        s_val = s.value if isinstance(s, J.Jet) else s
        outside = J.first_where(s_val, s_val >= 1.0) if self.c < 0.0 else None
        if outside is not None:
            raise EvalDomainError(
                f"point outside Poincare ball, |x|^2 = {outside:g}", value=outside
            )
        return 2.0 / (1.0 + self.c * s)

    def conformal_gradient(self, x):
        """Ambient partials d rho / d x_a = -c q x_a, as jets."""
        if self.model == "euclidean":
            zero = J.jet_constant(0.0, x[0].n_vars, x[0].order)
            return [zero] * self.n
        minus_cq = (-self.c) * self._conformal_factor(self._radial(x))
        return [minus_cq * xa for xa in x]

    def metric_factor(self, x):
        """q^2 = e^{2 rho} as a jet."""
        if self.model == "euclidean":
            return J.jet_constant(1.0, x[0].n_vars, x[0].order)
        q = self._conformal_factor(self._radial(x))
        return q * q

    def metric_factor_value(self, xvals):
        if self.model == "euclidean":
            return 1.0
        return self._conformal_factor(float(np.dot(xvals, xvals))) ** 2

    def metric(self, x):
        """h_ab = e^{2 rho} delta_ab as an n x n jet matrix."""
        e2 = self.metric_factor(x)
        zero = J.jet_constant(0.0, x[0].n_vars, x[0].order)
        return [
            [e2 if a == b else zero for b in range(self.n)] for a in range(self.n)
        ]

    def christoffel(self, x):
        """Gamma^k_ab = delta_ak d_b rho + delta_bk d_a rho - delta_ab d_k rho."""
        grad = self.conformal_gradient(x)
        zero = J.jet_constant(0.0, x[0].n_vars, x[0].order)
        n = self.n
        gamma = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    term = zero
                    if a == k:
                        term = term + grad[b]
                    if b == k:
                        term = term + grad[a]
                    if a == b:
                        term = term - grad[k]
                    gamma[k][a][b] = term
        return gamma


def spaceform_curvature(chart, x_vec, y_vec, z_vec, point):
    """R^N(X,Y)Z = c (h(Y,Z) X - h(X,Z) Y) at constant curvature c."""
    c = chart.c
    if c == 0.0:
        return np.zeros_like(np.asarray(x_vec, dtype=float))
    x_vec = np.asarray(x_vec, dtype=float)
    y_vec = np.asarray(y_vec, dtype=float)
    z_vec = np.asarray(z_vec, dtype=float)
    e2 = chart.metric_factor_value(point)
    return c * (e2 * np.dot(y_vec, z_vec) * x_vec - e2 * np.dot(x_vec, z_vec) * y_vec)


# -- warped ambient (I x N, dt^2 + f^2 h) ---------------------------------


@dataclass(frozen=True)
class WarpEval:
    """Warping function and its first two derivatives at a fixed t."""

    f: float
    f1: float
    f2: float

    def __post_init__(self):
        if not self.f > 0.0:
            raise EvalDomainError(f"warping function must be positive, got {self.f:g}", value=self.f)
        if not all(map(math.isfinite, (self.f, self.f1, self.f2))):
            raise EvalDomainError(
                f"warping function and its derivatives must be finite, got "
                f"f={self.f:g}, f'={self.f1:g}, f''={self.f2:g}",
                value=self.f,
            )

    @classmethod
    def at(cls, warp, t, params):
        """Evaluate the warp expression `warp` and its derivatives at t."""
        f = eval_jet(warp, {"t": J.jet_variable(0, float(t), 1, 2)}, params)
        return cls(f.value, f.partial((1,)), f.partial((2,)))

    def power_residual(self, m):
        """f f'' + (m-1) f'^2, the power-family residual."""
        return self.f * self.f2 + (m - 1) * self.f1**2


def warped_curvature_full(warp, chart, x, y, z, point):
    """R of (I x N, dt^2 + f^2 h) on arbitrary vectors, assembled by
    multilinearity from the radial case R(U, dt) dt = -(f''/f) U and the
    horizontal case R(V, W) U = R^N(V, W) U - f'^2 [h(U, W) V - h(U, V) W].
    Vectors are (t-component, N-components) pairs; the result is returned
    the same way."""
    x0, xn = float(x[0]), np.asarray(x[1], dtype=float)
    y0, yn = float(y[0]), np.asarray(y[1], dtype=float)
    z0, zn = float(z[0]), np.asarray(z[1], dtype=float)
    e2 = chart.metric_factor_value(point)
    f, f1, f2 = warp.f, warp.f1, warp.f2

    n_part = spaceform_curvature(chart, xn, yn, zn, point)
    n_part = n_part - f1**2 * (
        e2 * np.dot(zn, yn) * xn - e2 * np.dot(zn, xn) * yn
    )
    n_part = n_part + (f2 / f) * (x0 * z0 * yn - y0 * z0 * xn)

    t_part = f * f2 * (y0 * e2 * np.dot(xn, zn) - x0 * e2 * np.dot(yn, zn))
    return t_part, n_part
