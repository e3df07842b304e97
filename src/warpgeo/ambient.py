"""Space-form ambients as conformally flat charts, and the warp of the
warped product (I x N, dt^2 + f^2 h) evaluated at one t or over a sweep.

Charts: Euclidean space (identity chart), the unit sphere via stereographic
projection (conformal factor 2/(1+|x|^2), missing one point) and unit
hyperbolic space via the Poincare ball (2/(1-|x|^2), |x| < 1).  Only unit
curvature models are supported; other radii are obtained by scaling the
immersion instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import jet as J
from .errors import ConfigError, EvalDomainError

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

    def _radial(self, x, n_vars):
        return J.unstack(J.contract("a,a->", x, x, n_vars), n_vars)

    def _conformal_factor(self, s):
        """q = 2 / (1 + c s) at the squared chart radius s, a jet.  Not
        defined for the Euclidean chart, where q = 1."""
        outside = J.first_where(s.value, s.value >= 1.0) if self.c < 0.0 else None
        if outside is not None:
            raise EvalDomainError(
                f"point outside Poincare ball, |x|^2 = {outside:g}", value=outside
            )
        return 2.0 / (1.0 + self.c * s)

    # Chart points x are jet tensors (size, n, *batch) over n_vars variables.
    # metric_factor and christoffel take q = conformal_factor(y, n_vars) of
    # chart points y that x truncates (y may be x itself), so a point's
    # conformal factor is computed once; truncated to the order of x it is
    # bit for bit the q computed from x.

    def conformal_factor(self, x, n_vars):
        """q as a jet; None for the Euclidean chart."""
        if self.model == "euclidean":
            return None
        return self._conformal_factor(self._radial(x, n_vars))

    def metric_factor(self, x, n_vars, q):
        """q^2 = e^{2 rho} as a jet."""
        if self.model == "euclidean":
            return J.jet_constant(1.0, n_vars, J.order_of(x, n_vars))
        q = q.trunc(J.order_of(x, n_vars))
        return q * q

    def christoffel(self, x, n_vars, q):
        """Gamma^k_ab = delta_ak d_b rho + delta_bk d_a rho - delta_ab d_k rho
        from the conformal gradient d_a rho = -c q x_a, as a jet tensor
        (size, n, n, n, *batch); None for the Euclidean chart, whose symbols
        vanish."""
        if self.model == "euclidean":
            return None
        minus_cq = (-self.c) * q.trunc(J.order_of(x, n_vars))
        grad = J.contract(",a->a", minus_cq.coeffs, x, n_vars)
        eye = np.eye(self.n)
        return (
            np.einsum("ka,zb...->zkab...", eye, grad)
            + np.einsum("kb,za...->zkab...", eye, grad)
            - np.einsum("ab,zk...->zkab...", eye, grad)
        )


def spaceform_curvature(chart, x_vec, y_vec, z_vec, e2):
    """R^N(X,Y)Z = c (h(Y,Z) X - h(X,Z) Y) at constant curvature c, for
    float arrays X, Y, Z at a point where h = e2 delta (e2 the value of
    `metric_factor`)."""
    c = chart.c
    if c == 0.0:
        return np.zeros_like(x_vec)
    return c * (e2 * np.dot(y_vec, z_vec) * x_vec - e2 * np.dot(x_vec, z_vec) * y_vec)


# -- warped ambient (I x N, dt^2 + f^2 h) ---------------------------------


@dataclass(frozen=True)
class WarpEval:
    """Warping function and its first two derivatives at t, as
    `WarpedScene.warp_at` evaluates them: floats at one t, and arrays of
    one shape over a sweep of t."""

    t: object
    f: object
    f1: object
    f2: object

    def __post_init__(self):
        # the first t at which f is not positive, a value is not finite or
        # f^4, which the closed forms divide by, is not a finite normal
        # float, with the message of its first failing check
        inf = math.inf
        if isinstance(self.f, float):  # one t: a float's power raises on overflow
            try:
                f4 = power(self.f, 4)
            except OverflowError:
                f4 = inf
        else:
            with np.errstate(over="ignore"):
                f4 = power(self.f, 4)
        ok = (0.0 < self.f) & (abs(self.f1) < inf) & (abs(self.f2) < inf)
        ok &= (sys.float_info.min <= f4) & (f4 < inf)
        if ok is True or np.all(ok):  # a bool at one t
            return
        i = np.flatnonzero(np.logical_not(ok))[0]
        f, f1, f2 = (float(np.ravel(x)[i]) for x in (self.f, self.f1, self.f2))
        if not f > 0.0:
            raise EvalDomainError(f"warping function must be positive, got {f:g}", value=f)
        if not all(map(math.isfinite, (f, f1, f2))):
            raise EvalDomainError(
                f"warping function and its derivatives must be finite, got "
                f"f={f:g}, f'={f1:g}, f''={f2:g}",
                value=f,
            )
        raise EvalDomainError(
            f"f^4 of the warping function must be a finite normal float, got f={f:g}",
            value=f,
        )

    def power_residual(self, m):
        """f f'' + (m-1) f'^2, the power-family residual."""
        return self.f * self.f2 + (m - 1) * power(self.f1, 2)


def power(x, p):
    """x ** p for a float or an array x, by C's pow at every entry, as
    Python takes a float's power: numpy's own array power rounds some
    entries differently, so a sweep would not equal its one-t values."""
    return x**p if isinstance(x, float) else np.float_power(x, p)
