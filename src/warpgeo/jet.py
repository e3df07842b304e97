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
fails them (``errors.first_failing``); a NaN passes the checks of sign and
size (``x != x``) to the series check.  The univariate series run under
``errors.range_policy``: a series whose terms leave the float range is an
EvalDomainError.

A tensor of jets (a Christoffel symbol, a second fundamental form) is one
coefficient array of shape ``(size, *tensor, *batch)``.  :func:`contract`
multiplies two of them and sums over repeated indices in one call, and it
is the one product kernel: a scalar product (:meth:`Jet.__mul__`, each
Horner step of a univariate series) is the contraction ``",->"``.  A call
is one ``take`` per operand, one ``np.multiply`` and one ``np.bincount``:
each operand, reshaped to insert the singleton axes of the indices it
lacks, gathers its factor of every term of the truncated product along its
first axis, already lined up with the product's axes; the products are
added into their coefficients in one fixed order, so a batch still equals
its points one by one (:func:`jet_mat_inverse` is a series of
contractions).  Everything but that arithmetic is compiled once per
pattern and operand shapes into a cached plan, which owns each operand's
gather and the scatter index of each batch shape.  The one gather serves
one class of pattern, which every contraction of the package is in: the
indices the operands share run in the same order in both, every summed
index is shared, and every result index is held once; a plan refuses any
other.  A tensor operand whose coefficients past the value are all zero (a
constant factor, such as the tangents of a linear chart) takes a plan of
its own that forms only the terms with its value: the same kernel over
fewer coefficient pairs, and the same bits, since every term it drops is a
product with an exact zero.  A
scalar product with a constant is a scale before it gets here: the
expression evaluator keeps numbers and params as constants, and
:func:`_compose` starts its Horner steps with one.  :func:`deriv`,
:func:`gradient` and :func:`trunc` are the array forms of :meth:`Jet.d` and
:meth:`Jet.trunc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EvalDomainError, SingularJetError, UsageError, first_failing
from .errors import as_value, range_policy

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
        index,
        fact,
        np.array(ia),
        np.array(ib),
        np.array(ic),
        tuple(deriv),
        len(monos),
    )


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
    def value(self):
        return as_value(self.coeffs[0])

    def partial(self, alpha):
        """Return the raw derivative d^alpha f at the point."""
        alpha = tuple(alpha)
        space = _space(self.n_vars, self.order)
        if alpha not in space.index:
            if len(alpha) != self.n_vars:
                raise UsageError(f"multi-index length {len(alpha)} != {self.n_vars}")
            raise UsageError(f"{alpha} is not a multi-index of order <= {self.order}")
        i = space.index[alpha]
        return as_value(self.coeffs[i] * space.factorials[i])

    def trunc(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise UsageError(f"cannot raise jet order {self.order} -> {order}")
        return Jet(self.n_vars, order, trunc(self.coeffs, self.n_vars, order))

    def d(self, var):
        """Partial derivative with respect to chart variable `var`;
        the result is a jet of one order lower."""
        if self.order == 0:
            raise UsageError("cannot differentiate an order-0 jet")
        if not (0 <= var < self.n_vars):
            raise UsageError(f"variable index {var} out of range")
        return Jet(self.n_vars, self.order - 1, deriv(self.coeffs, self.n_vars, var))

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _aligned(self.coeffs, other.coeffs)
        return Jet(self.n_vars, self.order, a - b)

    def __neg__(self):
        return Jet(self.n_vars, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.n_vars, self.order, self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _aligned(self.coeffs, other.coeffs)
        return Jet(self.n_vars, self.order, contract(",->", a, b, self.n_vars))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * reciprocal(other)

    def __rtruediv__(self, other):  # a Jet on the left takes its own __truediv__
        if not isinstance(other, _NUMBER):
            return NotImplemented
        return reciprocal(self) * float(other)


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
        unit = (0,) * index + (1,) + (0,) * (n_vars - 1 - index)
        out.coeffs[_space(n_vars, order).index[unit]] = 1.0
    return out


# -- tensors of jets ------------------------------------------------------


@lru_cache(maxsize=None)
def _space_of(n_vars, size):
    for order in range(MAX_ORDER + 1):
        if _space(n_vars, order).size == size:
            return _space(n_vars, order)
    raise ConfigError(f"no jet space of {n_vars} variables has {size} coefficients")


def order_of(c, n_vars):
    """The jet order of the coefficient array `c` over `n_vars` variables."""
    return _space_of(n_vars, len(c)).order


def trunc(c, n_vars, order):
    """Array form of Jet.trunc: the coefficients of order <= `order`."""
    return c[: _space(n_vars, order).size]


def deriv(c, n_vars, var):
    """Array form of Jet.d: the derivative along variable `var` of every jet
    in `c`, one order lower."""
    src, mult = _space_of(n_vars, len(c)).deriv[var]
    return c[src] * mult.reshape(mult.shape + (1,) * (c.ndim - 1))


@lru_cache(maxsize=None)
def _gradient_table(n_vars, size, slots, ndim, axis):
    """The deriv tables of the variables in `slots` side by side, source
    (size', k) and multiplier (size', k, 1, ...), for an array of `ndim`
    axes, and the transpose that moves their k axis to `axis`."""
    tables = _space_of(n_vars, size).deriv
    src = np.stack([tables[v][0] for v in slots], axis=1)
    mult = np.stack([tables[v][1] for v in slots], axis=1)
    axes = list(range(ndim + 1))
    axes.insert(axis, axes.pop(1))
    return src, mult.reshape(mult.shape + (1,) * (ndim - 1)), tuple(axes)


def gradient(c, n_vars, slots, axis=1):
    """The derivatives of `c` along each variable in `slots`, stacked as a
    new tensor axis at position `axis`: the deriv of every slot in one
    gather, its slot axis moved to `axis` as a view."""
    src, mult, axes = _gradient_table(n_vars, len(c), tuple(slots), c.ndim, axis)
    return (c.take(src, axis=0) * mult).transpose(axes)


def stack(jets):
    """The coefficient array (size, k, *batch) of a list of k scalar jets of
    one space, their batch shapes broadcast together from the left (a jet
    of batch shape () against any).  Each jet is copied into its slot of
    one preallocated array through reversed axes, which line the batch
    shapes up from the left; the shape is that of one row of each shape
    broadcast (np.broadcast takes at most 64)."""
    rows = [j.coeffs.T for j in jets]
    shape = np.broadcast(*{r.shape: r for r in rows}.values()).shape[::-1]
    out = np.empty(shape[:1] + (len(rows),) + shape[1:])
    for i, r in enumerate(rows):
        out[:, i].T[...] = r
    return out


def unstack(c, n_vars):
    """The scalar jet with the coefficients c (size, *batch): one entry of
    a jet tensor."""
    return Jet(n_vars, order_of(c, n_vars), c)


class _Plan(NamedTuple):
    """A compiled contraction: everything but the arithmetic.  Term k of
    the product pairs coefficient ia[k] of the left factor with coefficient
    ib[k] of the right one.  Each operand is reshaped to view_a (view_b),
    or kept as it is where that is None, and gathered along its first axis
    by ia (ib), which lines its factor of every term up with the product's
    axes."""

    ia: np.ndarray
    view_a: tuple
    ib: np.ndarray
    view_b: tuple
    bins: np.ndarray  # the result bin of each product term
    spread: int  # the batch width bins is spread over at each call, or 1
    count: int  # bins of the flat result
    shape: tuple  # of the result


# The largest scatter index a plan caches, in bytes: the biggest one a build
# of biharmonic._CHUNK = 128 points makes over 3 variables, "abc,ib->aci" on
# a curved hypersurface of S4 (28 coefficient pairs x 192 entries x 128
# points x 8 bytes); a flat slice's tangents are constant, and its plans of
# a constant factor are smaller.  A wider plan keeps the index of one point
# and spreads it over the batch at each call.
PLAN_INDEX_BYTES = 28 * 192 * 128 * 8


def _indices(subscripts):
    """The indices (left, right, out) of a pattern that contract serves:
    no index repeated within an operand or the result, every index held by
    two of the three, so that a summed one is shared and a kept one comes
    from an operand, and the shared indices in the same order in both
    operands.  Any other pattern is a UsageError."""
    try:
        inputs, out = subscripts.split("->")
        left, right = inputs.split(",")
    except ValueError:
        raise UsageError(f"{subscripts!r} is not of the form 'left,right->out'") from None
    for letters in (left, right, out):
        for k in letters:
            if letters.count(k) > 1:
                raise UsageError(f"{subscripts!r} repeats index {k!r} in {letters!r}")
    for k in left + right + out:
        if (k in left) + (k in right) + (k in out) < 2:
            where = "the result" if k in out else "one operand"
            raise UsageError(f"{subscripts!r}: index {k!r} is only in {where}")
    if [k for k in left if k in right] != [k for k in right if k in left]:
        raise UsageError(f"{subscripts!r}: the shared indices run in different orders")
    return left, right, out


def _term_axes(left, right):
    """The order of the product's index axes: each index of the two
    operands once, merged so that each operand's indices keep their own
    order.  The indices the operands share, the contracted ones among
    them, run in their common order, so each result entry adds its terms
    by coefficient pair and then by contracted index in the order of
    `left`."""
    axes, i, j = "", 0, 0
    for k in (k for k in left if k in right):
        axes += left[i : left.index(k)] + right[j : right.index(k)] + k
        i, j = left.index(k) + 1, right.index(k) + 1
    return axes + left[i:] + right[j:]


def _view(letters, axes, dims, shape, n_batch):
    """The reshape of an operand of `shape` whose indices are `letters`
    that inserts a singleton for each index of `axes` and each of the
    n_batch batch axes it lacks, or None if it needs none."""
    batch = shape[1 + len(letters) :]
    pad = (1,) * (n_batch - len(batch))
    view = shape[:1] + tuple(dims[k] if k in letters else 1 for k in axes) + pad + batch
    return None if view == shape else view


@lru_cache(maxsize=256)
def _plan(subscripts, n_vars, shape_a, shape_b, constant):
    """Everything contract(subscripts) does on operands of shapes shape_a
    and shape_b apart from the arithmetic, once the operands' shapes fit
    the pattern.  The product terms run over the coefficient pairs of the
    truncated product, then over the index axes of `_term_axes`, then over
    the batch.  The plan holds how each operand gathers its factor of every
    term, the bin of each term with the batch already expanded (bin i of an
    unbatched result becomes bin i * width + j at point j), the bin count
    and the result shape.

    `constant` names the operands whose coefficients past the value are all
    zero: "a", "b", "ab" or "".  Their plan keeps only the coefficient pairs
    (0, j), (i, 0) or (0, 0), in the order of the full plan, so every result
    entry adds the same nonzero terms in the same order; the terms it drops
    are products with an exact zero, which add nothing to np.bincount's +0.0
    start, and for finite operands the result is the full plan's bit for
    bit.

    The bin index holds 8 bytes per coefficient pair, product entry and
    batch point, and the cache keeps the 256 plans used last.  classify and
    parameter_scan build over at most biharmonic._CHUNK = 128 points.  At
    that width the plans of one PointGeometry build of a hypersurface hold
    at most 3.3 MB over 2 variables (1.8 MB on the cone) and 24 MB over 3
    (a curved S4 hypersurface), and its largest plan PLAN_INDEX_BYTES,
    5.5 MB.  A plan whose full expanded index would be larger keeps the
    index of one point and spreads it over the batch at each call, so the
    cache holds at most 256 * 5.5 MB = 1.4 GB whatever the batch width.  A
    constant operand's plan is expanded exactly when the full plan would
    be, so its index is never the larger."""
    left, right, out = _indices(subscripts)
    s = _space_of(n_vars, shape_a[0])
    if shape_b[0] != s.size:
        raise UsageError(f"jet tensor sizes differ: {shape_a[0]} vs {shape_b[0]}")
    dims = {}
    for letters, shape in ((left, shape_a), (right, shape_b)):
        if len(shape) <= len(letters):
            raise UsageError(f"{subscripts!r}: {letters!r} needs more axes than {shape}")
        for k, n in zip(letters, shape[1:]):
            if dims.setdefault(k, n) != n:
                raise UsageError(f"{subscripts!r}: index {k!r} has sizes {dims[k]} and {n}")
    try:
        batch = np.broadcast_shapes(shape_a[1 + len(left) :], shape_b[1 + len(right) :])
    except ValueError:
        msg = f"{subscripts!r}: batch shapes of {shape_a} and {shape_b} do not broadcast"
        raise UsageError(msg) from None
    axes = _term_axes(left, right)
    out_shape = tuple(dims[k] for k in out)
    grid = np.indices(tuple(dims[k] for k in axes))
    entry = np.zeros(grid.shape[1:], dtype=np.intp)
    for k, stride in zip(out, np.cumprod((1,) + out_shape[:0:-1])[::-1]):
        entry += grid[axes.index(k)] * stride
    keep = np.ones(len(s.mul_ia), dtype=bool)
    if "a" in constant:
        keep &= s.mul_ia == 0
    if "b" in constant:
        keep &= s.mul_ib == 0
    ia, ib = s.mul_ia[keep], s.mul_ib[keep]
    bins = (s.mul_ic[keep, None] * math.prod(out_shape) + entry.ravel()).ravel()
    width = math.prod(batch)
    spread = width
    full = len(s.mul_ia) * entry.size * width * bins.itemsize
    if width > 1 and full <= PLAN_INDEX_BYTES:
        bins, spread = _spread(bins, width), 1
    return _Plan(
        ia,
        _view(left, axes, dims, shape_a, len(batch)),
        ib,
        _view(right, axes, dims, shape_b, len(batch)),
        bins,
        spread,
        s.size * math.prod(out_shape) * width,
        (s.size,) + out_shape + batch,
    )


def _spread(bins, width):
    """The scatter index of a batch `width` points wide: term k of point j
    lands in bin bins[k] * width + j."""
    return (bins[:, None] * width + np.arange(width)).ravel()


def contract(subscripts, a, b, n_vars):
    """The truncated jet product of the tensors `a` and `b`, summed over
    the indices that `subscripts` (einsum notation, e.g. "abc,kb->ack")
    leaves out of the result, a pattern `_indices` accepts.  ",->" is the
    product of two scalar jets.

    Operands are coefficient arrays (size, *tensor, *batch) of one jet space
    over `n_vars` variables; their batch shapes broadcast.  Each result
    entry adds its terms in one fixed order, by coefficient pair and then by
    contracted index, so a batch equals its points one by one.  An operand
    whose coefficients past the value are all zero takes the plan of a
    constant factor, which forms only the terms with its value; a scalar
    product ",->" is not checked, since its constant factors are scaled
    before they get here (expr.eval_jet, _compose)."""
    constant = ""
    if subscripts != ",->":
        constant = "a" * (not np.count_nonzero(a[1:])) + "b" * (
            not np.count_nonzero(b[1:])
        )
    p = _plan(subscripts, n_vars, a.shape, b.shape, constant)
    x = (a if p.view_a is None else a.reshape(p.view_a)).take(p.ia, axis=0)
    y = (b if p.view_b is None else b.reshape(p.view_b)).take(p.ib, axis=0)
    bins = p.bins if p.spread == 1 else _spread(p.bins, p.spread)
    return np.bincount(bins, (x * y).ravel(), p.count).reshape(p.shape)


# -- univariate composition ----------------------------------------------


def _compose(a, series):
    """Compose the power series `series` (coefficients about a.value, each
    a float or a batch array) with the nilpotent part of `a`, by Horner
    evaluation.  Truncation guarantees termination after `order` steps."""
    if a.order == 0:
        return jet_constant(series[0], a.n_vars, 0)
    nil = a.coeffs.copy()
    nil[0] = 0.0
    # the first step multiplies by the constant series[-1]: nil * series[-1]
    # with every zero +0.0, as contract forms that product
    out = nil * series[-1] + 0.0
    out[0] += series[-2]
    for c in reversed(series[:-2]):
        out = contract(",->", out, nil, a.n_vars)
        out[0] += c
    return Jet(a.n_vars, a.order, out)


def _require(operation, ok, at):
    """Raise EvalDomainError at the value `at` of the first point where the
    mask `ok` fails: the series there leaves the float range."""
    if bad := first_failing(ok, at):
        raise EvalDomainError(
            f"{operation} series at {bad[0]:g} leaves the float range", value=bad[0]
        )


def _require_in_range(operation, a, series):
    """Refuse a point where the value of `a` or a term of its power, log or
    exp `series` is not finite, or where a term past the value is below 2^-1022
    while a's nilpotent part is not zero: that nonzero term underflowed and
    drops its product with a power of that part, which can be a float (1/x
    at x = 1e70 u).  One point takes Python's math, a fifth of numpy's cost."""
    a0, terms = a.coeffs[0], series[1:]
    if isinstance(a0, np.ndarray):  # a reduction each over one array of sizes
        size = np.abs([a0] + series)
        ok, smallest = size.max(axis=0) < math.inf, np.fmin.reduce(size[2:], axis=None, initial=1.0)
    else:
        ok, smallest = all(map(math.isfinite, [a0] + series)), min(map(abs, terms), default=1)
    if smallest < 2.0**-1022:
        ok = ok & ~((np.abs(terms).min(axis=0) < 2.0**-1022) & np.any(a.coeffs[1:], axis=0))
    _require(operation, ok, a0)


def reciprocal(b):
    with range_policy():
        b0 = b.coeffs[0]
        if bad := first_failing((abs(b0) >= SINGULAR_EPS) | (b0 != b0), b0):
            raise SingularJetError(f"division by jet with value {bad[0]:g}", value=bad[0])
        return _power_series(b, -1.0)


def exp(a):
    with range_policy():
        v = np.exp(a.coeffs[0])
        series = [v / math.factorial(k) for k in range(a.order + 1)]
        _require_in_range("exp", a, series)
        return _compose(a, series)


def log(a):
    with range_policy():
        a0 = a.coeffs[0]
        if bad := first_failing((a0 > 0.0) | (a0 != a0), a0):
            raise EvalDomainError(f"log of non-positive value {bad[0]:g}", value=bad[0])
        series = [np.log(a0)] + [
            (-1.0) ** (k + 1) / k * np.power(a0, -k) for k in range(1, a.order + 1)
        ]
        _require_in_range("log", a, series)
        return _compose(a, series)


def _sin_cos(operation, a, shift):
    """sin (shift 0) or cos (shift 1) of `a`: the derivatives of sin cycle
    through sin, cos, -sin, -cos, and cos starts one step on."""
    with range_policy():
        a0 = a.coeffs[0]
        _require(operation, abs(a0) < math.inf, a0)
        s, c = np.sin(a0), np.cos(a0)
        cycle = [s, c, -s, -c]
        return _compose(a, [cycle[(k + shift) % 4] / math.factorial(k) for k in range(a.order + 1)])


def sin(a):
    return _sin_cos("sin", a, 0)


def cos(a):
    return _sin_cos("cos", a, 1)


def sqrt(a):
    with range_policy():
        a0 = a.coeffs[0]
        if bad := first_failing((a0 > 0.0) | (a0 != a0), a0):
            raise EvalDomainError(f"sqrt of non-positive value {bad[0]:g}", value=bad[0])
        return _power_series(a, 0.5)


def jpow(a, exponent):
    """a**exponent.  Integer exponents up to 128 in size use repeated
    multiplication and are valid at non-positive base; other exponents
    require value > 0.  A base or exponent that is not finite is a domain
    error."""
    p = float(exponent)
    if not math.isfinite(p):
        raise EvalDomainError(f"power with non-finite exponent {p:g}", value=p)
    with range_policy():
        a0 = a.coeffs[0]
        rounded = round(p)
        integral = abs(p - rounded) < 1e-12
        if integral and abs(rounded) <= 128:
            if bad := first_failing(np.isfinite(a0), a0):
                raise EvalDomainError(f"power {p:g} of non-finite value {bad[0]:g}", value=bad[0])
            n = int(rounded)
            if n == 0:
                return jet_constant(1.0, a.n_vars, a.order)
            base = a if n > 0 else reciprocal(a)
            out = base
            for _ in range(abs(n) - 1):
                out = out * base
            return out
        if bad := first_failing((a0 > 0.0) | (a0 != a0), a0):
            kind = (
                f"integer power {p:g} (|p| > 128)" if integral else f"non-integer power {p:g}"
            )
            raise EvalDomainError(f"{kind} of non-positive value {bad[0]:g}", value=bad[0])
        return _power_series(a, p)


def _power_series(a, p):
    """a**p by its binomial series about a.value, which the caller has
    checked is positive (or NaN) at every point, or nonzero for an integer
    p; an infinite value is refused, not taken for the 0 of a power < 0."""
    a0 = a.coeffs[0]
    series = []
    binom = 1.0
    for k in range(a.order + 1):
        series.append(binom * np.power(a0, p - k))
        binom *= (p - k) / (k + 1)
    _require_in_range(f"power {p:g}", a, series)
    return _compose(a, series)


# -- small dense linear algebra over jets: contractions of jet tensors ----


def jet_mat_inverse(c, n_vars, inv0):
    """The inverse of the jet matrices `c` (size, d, d, *batch), given the
    float inverse `inv0` (d, d, *batch) of their values.  With c = c0 + N,
    N nilpotent, and A = inv0 as a constant jet, the inverse solves
    X = A - (A N) X; each pass from X = A fixes one more order (Griewank &
    Walther, Evaluating Derivatives, ch. 13)."""
    A = np.zeros(c.shape[:1] + inv0.shape)
    A[0] = inv0
    N = c.copy()
    N[0] = 0.0
    step = contract("ij,jk->ik", A, N, n_vars)
    X = A
    for _ in range(order_of(c, n_vars)):
        X = A - contract("ij,jk->ik", step, X, n_vars)
    return X
