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
from dataclasses import dataclass, field

import numpy as np

from . import jet as J
from .errors import ConfigError, EvalDomainError, first_failing, range_policy

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
        s0 = s.coeffs[0]  # a NaN s0 passes, as s0 != s0 holds for it alone
        if self.c < 0.0 and (outside := first_failing((s0 < 1.0) | (s0 != s0), s0)):
            raise EvalDomainError(
                f"point outside Poincare ball, |x|^2 = {outside[0]:g}", value=outside[0]
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
    float vectors X, Y, Z (..., n), stacked on any leading axes that
    broadcast, at a point where h = e2 delta (e2 the value of
    `metric_factor`).  The inner products are np.vecdot's, which takes
    np.dot's path for each vector."""
    c = chart.c
    if c == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(x_vec), np.shape(y_vec), np.shape(z_vec)))
    yz = e2 * np.vecdot(y_vec, z_vec)
    xz = e2 * np.vecdot(x_vec, z_vec)
    return c * (yz[..., None] * x_vec - xz[..., None] * y_vec)


# -- warped ambient (I x N, dt^2 + f^2 h) ---------------------------------


@dataclass(frozen=True)
class WarpEval:
    """Warping function and its first two derivatives at t, as
    `WarpedScene.warp_at` evaluates them: floats at one t, and arrays of
    one shape over a sweep of t.  It forms the powers of f and f' that the
    closed forms read once, by `power`: f^3, f^4 and f'^2.  A refusal
    names the first t that fails it (`errors.first_failing`)."""

    t: object
    f: object
    f1: object
    f2: object
    f_pow3: object = field(init=False)
    f_pow4: object = field(init=False)
    f1_pow2: object = field(init=False)

    def __post_init__(self):
        f, f1 = self.f, self.f1
        with range_policy():
            factors = {
                "f_pow3": power(f, 3), "f_pow4": power(f, 4), "f1_pow2": power(f1, 2),
            }
        self.__dict__.update(factors)  # set once, here: the dataclass is frozen
        # the first t at which f is not positive, a value is not finite,
        # f^4, which the closed forms divide by, is not a finite normal
        # float, or f'^2 is not finite, with the message of its first
        # failing check
        inf, f4 = math.inf, self.f_pow4
        ok = (0.0 < f) & (abs(f1) < inf) & (abs(self.f2) < inf)
        ok &= (sys.float_info.min <= f4) & (f4 < inf) & (self.f1_pow2 < inf)
        if not (bad := first_failing(ok, self.t, f, f1, self.f2, f4)):
            return
        t, f, f1, f2, f4 = bad
        if not f > 0.0:
            raise EvalDomainError(f"warping function must be positive, got {f:g}", value=f)
        if not all(map(math.isfinite, (f, f1, f2))):
            raise EvalDomainError(
                f"warping function and its derivatives must be finite, got "
                f"f={f:g}, f'={f1:g}, f''={f2:g}",
                value=f,
            )
        if not sys.float_info.min <= f4 < inf:
            raise EvalDomainError(
                f"f^4 of the warping function must be a finite normal float, got f={f:g}",
                value=f,
            )
        raise EvalDomainError(
            f"f'^2 of the warping function must be finite, got f'={f1:g} at t={t:g}",
            value=f1,
        )

    def power_residual(self, m):
        """P = f f'' + (m-1) f'^2, the power-family residual, refused at the
        first t where it is not finite."""
        f, f2, f1_pow2 = self.f, self.f2, self.f1_pow2
        with range_policy():
            residual = f * f2 + (m - 1) * f1_pow2
        if not (bad := first_failing(abs(residual) < math.inf, self.t, f, self.f1, f2)):
            return residual
        t, f, f1, f2 = bad
        raise EvalDomainError(
            f"f f'' + (m-1) f'^2 of the warping function must be finite, got "
            f"f={f:g}, f'={f1:g}, f''={f2:g} at t={t:g}",
            value=f1,
        )


def power(x, p):
    """x ** p for a float or an array x, by C's pow at every entry, as
    Python takes a float's power: numpy's own array power rounds some
    entries differently, so a sweep would not equal its one-t values.  An
    overflow gives an infinity either way, where a float's power raises and
    numpy's warns: -inf for an odd power of a negative x."""
    if isinstance(x, float):
        try:
            return x**p
        except OverflowError:
            return math.copysign(math.inf, x) if p % 2 == 1 else math.inf
    return np.float_power(x, p)
