"""Truncated multivariate Taylor arithmetic (order <= 4, up to 6 variables).

A :class:`Jet` carries the Taylor coefficients of a scalar quantity at a
point: ``coeffs[alpha] = d^alpha f / alpha!``.  Storing normalised Taylor
coefficients (rather than raw derivatives) makes the truncated Cauchy
product index-free; :meth:`Jet.partial` multiplies the factorial back in.

Storage is dense over graded-lexicographic multi-indices.  Because the
grading sorts by total degree first, truncating a jet to a lower order is
a prefix slice of its coefficient vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, EvalDomainError, SingularJetError, UsageError

MAX_VARS = 6
MAX_ORDER = 4

# Value coefficients below this magnitude are treated as zero divisors.
SINGULAR_EPS = 1e-14


def _monomials(n_vars, order):
    """All multi-indices with |alpha| <= order, graded-lexicographic."""

    def of_degree(deg, n):
        if n == 1:
            yield (deg,)
            return
        for head in range(deg, -1, -1):
            for rest in of_degree(deg - head, n - 1):
                yield (head,) + rest

    out = []
    for deg in range(order + 1):
        out.extend(of_degree(deg, n_vars))
    return tuple(out)


@dataclass(frozen=True)
class _JetSpace:
    n_vars: int
    order: int
    monomials: tuple
    index: dict
    factorials: np.ndarray  # alpha! per monomial
    mul_ia: np.ndarray
    mul_ib: np.ndarray
    mul_ic: np.ndarray
    # derivative tables per variable: (src indices, dst indices, multipliers)
    deriv: tuple

    @property
    def size(self):
        return len(self.monomials)


@lru_cache(maxsize=None)
def _space(n_vars, order):
    if not (1 <= n_vars <= MAX_VARS):
        raise ConfigError(f"n_vars must be in [1, {MAX_VARS}], got {n_vars}")
    if not (0 <= order <= MAX_ORDER):
        raise ConfigError(f"order must be in [0, {MAX_ORDER}], got {order}")
    monos = _monomials(n_vars, order)
    index = {a: i for i, a in enumerate(monos)}
    fact = np.array(
        [math.prod(math.factorial(k) for k in a) for a in monos], dtype=float
    )

    ia, ib, ic = [], [], []
    for i, a in enumerate(monos):
        da = sum(a)
        for j, b in enumerate(monos):
            if da + sum(b) > order:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            ia.append(i)
            ib.append(j)
            ic.append(index[c])

    deriv = []
    if order >= 1:
        lower = _space(n_vars, order - 1)
        for v in range(n_vars):
            src, dst, mult = [], [], []
            for i, a in enumerate(monos):
                if a[v] == 0:
                    continue
                b = tuple(x - (1 if k == v else 0) for k, x in enumerate(a))
                if sum(b) > order - 1:
                    continue
                src.append(i)
                dst.append(lower.index[b])
                mult.append(float(a[v]))
            deriv.append(
                (np.array(src), np.array(dst), np.array(mult, dtype=float))
            )
    return _JetSpace(
        n_vars,
        order,
        monos,
        index,
        fact,
        np.array(ia),
        np.array(ib),
        np.array(ic),
        tuple(deriv),
    )


class Jet:
    __slots__ = ("n_vars", "order", "coeffs")

    def __init__(self, n_vars, order, coeffs):
        space = _space(n_vars, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.size,):
            raise ConfigError(
                f"expected {space.size} coefficients for "
                f"(n_vars={n_vars}, order={order}), got {coeffs.shape}"
            )
        self.n_vars = n_vars
        self.order = order
        self.coeffs = coeffs

    # -- basics -----------------------------------------------------------

    @property
    def space(self):
        return _space(self.n_vars, self.order)

    @property
    def value(self):
        return float(self.coeffs[0])

    def coefficient(self, alpha):
        return float(self.coeffs[self.space.index[tuple(alpha)]])

    def partial(self, alpha):
        """Return the raw derivative d^alpha f at the point."""
        alpha = tuple(alpha)
        if len(alpha) != self.n_vars:
            raise UsageError(f"multi-index length {len(alpha)} != {self.n_vars}")
        if sum(alpha) > self.order:
            raise UsageError(f"|{alpha}| exceeds jet order {self.order}")
        i = self.space.index[alpha]
        return float(self.coeffs[i] * self.space.factorials[i])

    def trunc(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise UsageError(f"cannot raise jet order {self.order} -> {order}")
        return Jet(self.n_vars, order, self.coeffs[: _space(self.n_vars, order).size])

    def d(self, var):
        """Partial derivative with respect to chart variable `var`;
        the result is a jet of one order lower."""
        if self.order == 0:
            raise UsageError("cannot differentiate an order-0 jet")
        if not (0 <= var < self.n_vars):
            raise UsageError(f"variable index {var} out of range")
        src, dst, mult = self.space.deriv[var]
        out = np.zeros(_space(self.n_vars, self.order - 1).size)
        np.add.at(out, dst, self.coeffs[src] * mult)
        return Jet(self.n_vars, self.order - 1, out)

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value:g})"

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if (other.n_vars, other.order) != (self.n_vars, self.order):
                raise UsageError(
                    f"jet shape mismatch: ({self.n_vars},{self.order}) vs "
                    f"({other.n_vars},{other.order})"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return jet_constant(float(other), self.n_vars, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.n_vars, self.order, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.n_vars, self.order, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.n_vars, self.order, other.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.n_vars, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.n_vars, self.order, self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s = self.space
        out = np.zeros(s.size)
        np.add.at(out, s.mul_ic, self.coeffs[s.mul_ia] * other.coeffs[s.mul_ib])
        return Jet(self.n_vars, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.n_vars, self.order, self.coeffs / float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        rec = reciprocal(self)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return rec * float(other)
        return self._coerce(other) * rec

    def __pow__(self, exponent):
        return jpow(self, exponent)


# -- constructors ---------------------------------------------------------


def jet_constant(value, n_vars, order):
    space = _space(n_vars, order)
    coeffs = np.zeros(space.size)
    coeffs[0] = value
    return Jet(n_vars, order, coeffs)


def jet_variable(index, value, n_vars, order):
    space = _space(n_vars, order)
    if not (0 <= index < n_vars):
        raise ConfigError(f"variable index {index} out of range for n_vars={n_vars}")
    coeffs = np.zeros(space.size)
    coeffs[0] = value
    if order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(n_vars))
        coeffs[space.index[unit]] = 1.0
    return Jet(n_vars, order, coeffs)


# -- univariate composition ----------------------------------------------


def _compose(a, series):
    """Compose the power series `series` (coefficients about a.value) with
    the nilpotent part of `a`, by Horner evaluation.  Truncation guarantees
    termination after `order` steps."""
    nil_coeffs = a.coeffs.copy()
    nil_coeffs[0] = 0.0
    nil = Jet(a.n_vars, a.order, nil_coeffs)
    out = jet_constant(series[-1], a.n_vars, a.order)
    for c in reversed(series[:-1]):
        out = out * nil + c
    return out


def _out_of_range(operation, value):
    """The error for a series coefficient beyond the float range."""
    return EvalDomainError(
        f"{operation} series at {value:g} leaves the float range", value=value
    )


def reciprocal(b):
    b0 = b.value
    if abs(b0) < SINGULAR_EPS:
        raise SingularJetError(
            f"division by jet with value {b0:g}", value=b0
        )
    try:
        series = [(-1.0) ** k / b0 ** (k + 1) for k in range(b.order + 1)]
    except OverflowError:
        raise _out_of_range("reciprocal", b0) from None
    return _compose(b, series)


def exp(a):
    try:
        v = math.exp(a.value)
    except OverflowError:
        raise _out_of_range("exp", a.value) from None
    series = [v / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def log(a):
    a0 = a.value
    if a0 <= 0.0:
        raise EvalDomainError(f"log of non-positive value {a0:g}", value=a0)
    try:
        series = [math.log(a0)] + [
            (-1.0) ** (k + 1) / (k * a0**k) for k in range(1, a.order + 1)
        ]
    except (OverflowError, ZeroDivisionError):  # a0**k beyond or below range
        raise _out_of_range("log", a0) from None
    return _compose(a, series)


def sin(a):
    a0 = a.value
    cycle = [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)]
    series = [cycle[k % 4] / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def cos(a):
    a0 = a.value
    cycle = [math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0)]
    series = [cycle[k % 4] / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def sqrt(a):
    a0 = a.value
    if a0 <= 0.0:
        raise EvalDomainError(f"sqrt of non-positive value {a0:g}", value=a0)
    return jpow(a, 0.5)


def jpow(a, exponent):
    """a**exponent.  Integer exponents use repeated multiplication and are
    valid at non-positive base; non-integer exponents require value > 0."""
    p = float(exponent)
    rounded = round(p)
    if abs(p - rounded) < 1e-12 and abs(rounded) <= 128:
        n = int(rounded)
        if n == 0:
            return jet_constant(1.0, a.n_vars, a.order)
        base = a if n > 0 else reciprocal(a)
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    a0 = a.value
    if a0 <= 0.0:
        raise EvalDomainError(
            f"non-integer power {p:g} of non-positive value {a0:g}", value=a0
        )
    series = []
    binom = 1.0
    try:
        for k in range(a.order + 1):
            series.append(binom * a0 ** (p - k))
            binom *= (p - k) / (k + 1)
    except OverflowError:
        raise _out_of_range(f"power {p:g}", a0) from None
    return _compose(a, series)


# -- small dense linear algebra over jets ---------------------------------


def jet_det(mat):
    """Determinant by Laplace expansion (division-free; matrices here are
    at most 4x4)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = None
    for j in range(n):
        minor = [
            [mat[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        term = mat[0][j] * jet_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def jet_mat_inverse(mat, det=None):
    """Inverse via the adjugate; raises SingularJetError through jet
    division when the determinant value vanishes."""
    n = len(mat)
    if det is None:
        det = jet_det(mat)
    inv_det = reciprocal(det)
    if n == 1:
        return [[inv_det]]
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = jet_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            inv[i][j] = cof * inv_det
    return inv
