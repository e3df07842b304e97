"""Truncated multivariate Taylor arithmetic (order <= 4, up to 6 variables),
vectorised over a batch of points.

A :class:`Jet` carries the Taylor coefficients of a scalar quantity at a
point: ``coeffs[alpha] = d^alpha f / alpha!``.  Storing normalised Taylor
coefficients (rather than raw derivatives) makes the truncated Cauchy
product index-free; :meth:`Jet.partial` multiplies the factorial back in.

Storage is dense over graded-lexicographic multi-indices.  Because the
grading sorts by total degree first, truncating a jet to a lower order is
a prefix slice of its coefficient vector.

Coefficients have shape ``(size, *batch)``: the coefficient index leads and
any further axes run over a batch of points, so one jet operation serves a
whole point grid.  An unbatched jet has batch shape ``()``; a jet of batch
shape ``()`` (a constant, say) combines with a batched one by broadcasting.
Every operation acts on each point of a batch exactly as it acts on that
point alone, so a batched result equals the column-by-column results bit
for bit: products add each point's terms in one fixed order (``np.bincount``)
and the univariate series use numpy ufuncs for every batch shape.  Domain
checks hold at every point, and each error names the first point that
fails them.
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
    # derivative tables per variable: (src indices, multipliers), listed in
    # the order of the lower-order space's coefficients
    deriv: tuple
    size: int


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

    # d/dx_v maps the monomial b + e_v to b, one to one onto the lower space
    deriv = []
    if order >= 1:
        for v in range(n_vars):
            unit = tuple(1 if k == v else 0 for k in range(n_vars))
            raised = [
                tuple(x + y for x, y in zip(b, unit))
                for b in _monomials(n_vars, order - 1)
            ]
            deriv.append(
                (
                    np.array([index[a] for a in raised]),
                    np.array([float(a[v]) for a in raised]),
                )
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
        len(monos),
    )


@lru_cache(maxsize=32)
def _scatter(n_vars, order, width):
    """The bin of each product term in a batch `width` points wide: term k
    of point j lands in bin mul_ic[k] * width + j (width 1 gives mul_ic).
    The cache is bounded because the index grows with the batch."""
    ic = _space(n_vars, order).mul_ic
    return (ic[:, None] * width + np.arange(width)).ravel()


def _scalar(x):
    """A coefficient row as returned to callers: a float for an unbatched
    jet, an array of the batch shape otherwise."""
    return float(x) if x.ndim == 0 else x


def _aligned(a, b):
    """Two coefficient arrays with their batch axes lined up, so that a
    jet of batch shape () broadcasts against a batched one."""
    if a.ndim == b.ndim:
        return a, b
    if a.ndim < b.ndim:
        a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
    else:
        b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
    return a, b


def first_where(values, bad):
    """The first entry of `values` (a float or a batch array) at which the
    mask `bad` holds, as a float, or None if it holds nowhere: the value a
    domain error reports."""
    if np.ndim(bad) == 0:
        return float(values) if bad else None
    if not bad.any():
        return None
    return float(values[bad][0])


_NUMBER = (int, float, np.floating, np.integer)


class Jet:
    __slots__ = ("n_vars", "order", "coeffs")

    def __init__(self, n_vars, order, coeffs):
        space = _space(n_vars, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:1] != (space.size,):
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
        return _scalar(self.coeffs[0])

    def coefficient(self, alpha):
        return _scalar(self.coeffs[self.space.index[tuple(alpha)]])

    def partial(self, alpha):
        """Return the raw derivative d^alpha f at the point."""
        alpha = tuple(alpha)
        if len(alpha) != self.n_vars:
            raise UsageError(f"multi-index length {len(alpha)} != {self.n_vars}")
        if sum(alpha) > self.order:
            raise UsageError(f"|{alpha}| exceeds jet order {self.order}")
        i = self.space.index[alpha]
        return _scalar(self.coeffs[i] * self.space.factorials[i])

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
        src, mult = self.space.deriv[var]
        coeffs, mult = _aligned(self.coeffs[src], mult)
        return Jet(self.n_vars, self.order - 1, coeffs * mult)

    def __repr__(self):
        if self.coeffs.ndim > 1:
            return (
                f"Jet(n_vars={self.n_vars}, order={self.order}, "
                f"batch={self.coeffs.shape[1:]})"
            )
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
        if isinstance(other, _NUMBER):
            return jet_constant(float(other), self.n_vars, self.order)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, _NUMBER):
            coeffs = self.coeffs.copy()
            coeffs[0] += other
            return Jet(self.n_vars, self.order, coeffs)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _aligned(self.coeffs, other.coeffs)
        return Jet(self.n_vars, self.order, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _NUMBER):
            return self + (-other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _aligned(self.coeffs, other.coeffs)
        return Jet(self.n_vars, self.order, a - b)

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return -self + other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _aligned(self.coeffs, other.coeffs)
        return Jet(self.n_vars, self.order, b - a)

    def __neg__(self):
        return Jet(self.n_vars, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.n_vars, self.order, self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s = _space(self.n_vars, self.order)
        a, b = _aligned(self.coeffs, other.coeffs)
        terms = a[s.mul_ia] * b[s.mul_ib]
        width = terms.size // len(s.mul_ic)
        bins = _scatter(self.n_vars, self.order, width)
        out = np.bincount(bins, terms.reshape(-1), s.size * width)
        return Jet(self.n_vars, self.order, out.reshape((s.size,) + terms.shape[1:]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.n_vars, self.order, self.coeffs / float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        rec = reciprocal(self)
        if isinstance(other, _NUMBER):
            return rec * float(other)
        return self._coerce(other) * rec

    def __pow__(self, exponent):
        return jpow(self, exponent)


# -- constructors ---------------------------------------------------------


def jet_constant(value, n_vars, order):
    """The constant `value`: a float, or an array giving one value per
    point of a batch."""
    space = _space(n_vars, order)
    coeffs = np.zeros((space.size,) + getattr(value, "shape", ()))
    coeffs[0] = value
    return Jet(n_vars, order, coeffs)


def jet_variable(index, value, n_vars, order):
    """Chart variable `index` seeded at `value`, a float or a batch array."""
    if not (0 <= index < n_vars):
        raise ConfigError(f"variable index {index} out of range for n_vars={n_vars}")
    out = jet_constant(value, n_vars, order)
    if order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(n_vars))
        out.coeffs[out.space.index[unit]] = 1.0
    return out


# -- univariate composition ----------------------------------------------


def _compose(a, series):
    """Compose the power series `series` (coefficients about a.value, each
    a float or a batch array) with the nilpotent part of `a`, by Horner
    evaluation.  Truncation guarantees termination after `order` steps."""
    nil_coeffs = a.coeffs.copy()
    nil_coeffs[0] = 0.0
    nil = Jet(a.n_vars, a.order, nil_coeffs)
    out = jet_constant(series[-1], a.n_vars, a.order)
    for c in reversed(series[:-1]):
        out = out * nil
        out.coeffs[0] += c
    return out


def _require_finite(operation, at, rows):
    """Raise EvalDomainError unless every entry of `rows` (a list of floats
    or batch arrays) is finite; the error names the value `at` of the first
    point where one is not."""
    finite = np.isfinite(rows)
    if not finite.all():
        value = first_where(at, ~finite.all(axis=0))
        raise EvalDomainError(
            f"{operation} series at {value:g} leaves the float range", value=value
        )


def _powers(x, count):
    """x, x^2, ..., x^count by repeated multiplication."""
    out = [x]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return out


def _require_positive(operation, a0):
    v = first_where(a0, a0 <= 0.0)
    if v is not None:
        raise EvalDomainError(f"{operation} of non-positive value {v:g}", value=v)


def reciprocal(b):
    b0 = b.coeffs[0]
    v = first_where(b0, abs(b0) < SINGULAR_EPS)
    if v is not None:
        raise SingularJetError(f"division by jet with value {v:g}", value=v)
    with np.errstate(all="ignore"):
        powers = _powers(b0, b.order + 1)
    _require_finite("reciprocal", b0, powers)
    series = [(-1.0) ** k / p for k, p in enumerate(powers)]
    return _compose(b, series)


def exp(a):
    a0 = a.coeffs[0]
    with np.errstate(all="ignore"):
        v = np.exp(a0)
    _require_finite("exp", a0, [v])
    series = [v / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def log(a):
    a0 = a.coeffs[0]
    _require_positive("log", a0)
    with np.errstate(all="ignore"):
        powers = _powers(a0, a.order)
        series = [np.log(a0)] + [
            (-1.0) ** (k + 1) / (k * p) for k, p in enumerate(powers, start=1)
        ]
    _require_finite("log", a0, powers + series)
    return _compose(a, series)


def _sin_cos(operation, a):
    a0 = a.coeffs[0]
    _require_finite(operation, a0, [a0])
    return np.sin(a0), np.cos(a0)


def sin(a):
    s, c = _sin_cos("sin", a)
    cycle = [s, c, -s, -c]
    series = [cycle[k % 4] / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def cos(a):
    s, c = _sin_cos("cos", a)
    cycle = [c, -s, -c, s]
    series = [cycle[k % 4] / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, series)


def sqrt(a):
    _require_positive("sqrt", a.coeffs[0])
    return jpow(a, 0.5)


def jpow(a, exponent):
    """a**exponent.  Integer exponents use repeated multiplication and are
    valid at non-positive base; non-integer exponents require value > 0.
    A base or exponent that is not finite is a domain error."""
    p = float(exponent)
    if not math.isfinite(p):
        raise EvalDomainError(f"power with non-finite exponent {p:g}", value=p)
    a0 = a.coeffs[0]
    rounded = round(p)
    if abs(p - rounded) < 1e-12 and abs(rounded) <= 128:
        v = first_where(a0, ~np.isfinite(a0))
        if v is not None:
            raise EvalDomainError(f"power {p:g} of non-finite value {v:g}", value=v)
        n = int(rounded)
        if n == 0:
            return jet_constant(1.0, a.n_vars, a.order)
        base = a if n > 0 else reciprocal(a)
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    v = first_where(a0, a0 <= 0.0)
    if v is not None:
        raise EvalDomainError(
            f"non-integer power {p:g} of non-positive value {v:g}", value=v
        )
    series = []
    binom = 1.0
    with np.errstate(all="ignore"):
        for k in range(a.order + 1):
            series.append(binom * np.power(a0, p - k))
            binom *= (p - k) / (k + 1)
    _require_finite(f"power {p:g}", a0, series)
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
