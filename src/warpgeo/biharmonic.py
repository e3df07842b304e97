"""Hypersurface biharmonicity: normal/tangential residuals of the
bitension split, classification flags, and parameter root scans."""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, UsageError, WarpgeoError, first_failing, range_policy
from .immersion import PointGeometry, per_point, vdot

# parameter_scan's root test: simple roots of the fixture scans measure
# 0.5-2.0 against it, the pole of the graph u^2/(r-1) + v^2 measures 6e-7.
# The residual there vanishes like d|d|, so it reads about 2^-_SLOPE_LAG.
_ROOT_RATE_BAND = 1e3
_SLOPE_LAG = 20
_XTOL = 1e-10
_RTOL = 4 * sys.float_info.epsilon
# items per batch of `each`; each contraction of a batch caches a scatter
# index in proportion to its width (jet._plan), up to jet.PLAN_INDEX_BYTES,
# the largest one a batch of this width makes; also the most midpoints a
# predicted path adds to a round of parameter_scan's bisection
_CHUNK = 128
# halvings every round of parameter_scan's bisection can take, whichever
# way they go
_SCAN_DEPTH = 5


def normal_residual(pg):
    """m [ -Delta(lambda) + lambda |A|^2 - lambda Ric(eta, eta) ] at the
    points of the hypersurface PointGeometry `pg`; a point at which lambda,
    |A|^2, Delta(lambda) or the residual is not finite is an
    EvalDomainError (`_require_finite`)."""
    pg.spec.require_hypersurface()
    m = pg.spec.m
    with range_policy():
        residual = m * (-pg.lap_lam + pg.lam * pg.normA2 - pg.lam * pg.ric_eta_eta)
    # a non-finite lambda, |A|^2 or Delta(lambda) makes its term, and so the
    # residual, non-finite (0 * inf is nan): they are named when it is not
    if not np.isfinite(residual).all():
        _require_finite(
            pg,
            ("lambda", pg.lam),
            ("|A|^2", pg.normA2),
            ("lapLambda", pg.lap_lam),
            ("normal residual", residual),
        )
    return residual


def tangential_residual(pg):
    """m [ 2 A(grad lambda) + m lambda grad lambda - 2 lambda (Ricci eta)^T ]
    at the points of the hypersurface PointGeometry `pg`.

    Returns (ambient components, induced-metric norm); a point at which the
    norm is not finite is an EvalDomainError.  The Ricci term is zero and
    is not computed: in a space form Ric(eta) = (n-1)c eta is normal, so
    its projection onto span{d_i X} vanishes.
    """
    pg.spec.require_hypersurface()
    m = pg.spec.m

    with range_policy():
        a_grad = np.matvec(pg.S_val, pg.grad_lam)  # intrinsic components of A(grad lambda)
        lam = per_point(pg.lam, 1)
        t_intr = m * (2.0 * a_grad + m * lam * pg.grad_lam)
        t_amb = np.matvec(pg.dX_val.mT, t_intr)
        norm = np.sqrt(np.maximum(vdot(t_intr, np.matvec(pg.g_val, t_intr)), 0.0))
    _require_finite(pg, ("tangential residual", norm))
    return t_amb, norm


@dataclass(frozen=True)
class ClassificationRecord:
    tol: float
    scale: float
    max_normal: float
    max_tangential: float
    max_mean_curvature: float
    harmonic: bool
    normally_biharmonic: bool
    tangentially_biharmonic: bool
    biharmonic: bool
    points: tuple

    def to_dict(self):
        return {
            "tol": self.tol,
            "scale": self.scale,
            "maxNormalResidual": self.max_normal,
            "maxTangentialResidual": self.max_tangential,
            "maxMeanCurvature": self.max_mean_curvature,
            "harmonic": self.harmonic,
            "normally_biharmonic": self.normally_biharmonic,
            "tangentially_biharmonic": self.tangentially_biharmonic,
            "biharmonic": self.biharmonic,
            "points": [list(p) for p in self.points],
        }


def classify(spec, points, tol, geometries=None):
    """Classify over a point batch with relative residual scale
    m (1 + |lambda|)(1 + |A|^2).

    `geometries`, if given, holds PointGeometry objects covering the
    points (one per point, or batched); otherwise `each` evaluates the
    points in batches, and the error raised is the one of the first
    failing point.  A maximum over residuals one of which is NaN is NaN,
    so a NaN residual never passes a tolerance."""
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"tolerance {tol} is not a finite number >= 0")
    points = [tuple(p) for p in points]
    if not points:
        raise UsageError("classify needs at least one point")
    spec.require_hypersurface()
    with range_policy():  # a value past the float range is refused in _measures
        if geometries is None:
            read = each(lambda ps: np.column_stack(_measures(_geometry(spec, ps))), points)
            rows = [read(i) for i in range(len(points))]
        else:
            rows = np.vstack([np.column_stack(_measures(pg)) for pg in geometries])
    scale, max_n, max_t, max_h = map(float, np.max(rows, axis=0, initial=0.0))
    normally = max_n <= tol * scale
    tangentially = max_t <= tol * scale
    harmonic = max_h <= tol * (1.0 + scale)
    return ClassificationRecord(
        tol=tol,
        scale=scale,
        max_normal=max_n,
        max_tangential=max_t,
        max_mean_curvature=max_h,
        harmonic=harmonic,
        normally_biharmonic=normally or harmonic,
        tangentially_biharmonic=tangentially or harmonic,
        biharmonic=(normally and tangentially) or harmonic,
        points=tuple(points),
    )


def _geometry(spec, points):
    """The PointGeometry of `points` as one batch.  Points of different
    lengths raise, for `each` to halve down to the one PointGeometry rejects."""
    if len({len(p) for p in points}) > 1:
        raise UsageError("points of different lengths in one batch")
    return PointGeometry(spec, np.array(points).T)


def _measures(pg):
    """(scale, |normal residual|, tangential residual, |H|) at the points of
    the PointGeometry `pg`: floats, or arrays over its batch.  A point at
    which one of them is not finite is an EvalDomainError: an infinite
    scale would pass any residual."""
    normal = np.abs(normal_residual(pg))
    _, tangential = tangential_residual(pg)
    scale = pg.spec.m * (1.0 + np.abs(pg.lam)) * (1.0 + pg.normA2)
    _require_finite(pg, ("residual scale", scale))
    return scale, normal, tangential, np.sqrt(pg.h2)


def _require_finite(pg, *named):
    """Raise EvalDomainError unless the per-point values of `named`, (name,
    values) pairs read at the points of the PointGeometry `pg`, are all
    finite.  The error names the first point at which one is not, and the
    first of them that is not finite there.  A value at one point (a
    float) is tested by math.isfinite, at a tenth of np.isfinite's cost."""
    ok = True
    for _, v in named:
        ok = ok & (np.isfinite(v) if isinstance(v, np.ndarray) else math.isfinite(v))
    if not (bad := first_failing(ok, *[v for _, v in named], *pg.point)):
        return
    name, value = next((q, x) for (q, _), x in zip(named, bad) if not math.isfinite(x))
    point = ", ".join(f"{c:g}" for c in bad[len(named):])
    raise EvalDomainError(
        f"{name} at ({point}) leaves the float range ({value:g})", value=value
    )


def each(evaluate, xs):
    """A reader i -> row i of a batched evaluation of the list `xs`, where
    `evaluate` maps a list of items to a sequence of one row per item.

    xs is cut into parts of _CHUNK items, and a part whose evaluation
    raises a WarpgeoError into halves, down to single items.  A part is
    evaluated when one of its rows is first read, and only the part read
    last is held, so rows read in order cost one evaluation per part and
    the memory of one batch, and an isolated failure about 2 log2(_CHUNK)
    evaluations.  Reading the row of a single item that raises raises that
    item's error."""
    failed = set()  # (start, stop) of each part that raised
    held = (0, 0, ())  # the part read last: start, stop, rows

    def row(i):
        nonlocal held
        start, stop, rows = held
        if not start <= i < stop:
            start = i - i % _CHUNK
            stop = min(start + _CHUNK, len(xs))
            while (start, stop) in failed:
                mid = (start + stop) // 2
                start, stop = (start, mid) if i < mid else (mid, stop)
            try:
                rows = evaluate(xs[start:stop])
            except WarpgeoError:
                if stop - start == 1:
                    raise
                failed.add((start, stop))
                return row(i)
            held = start, stop, rows
        return rows[i - start]

    return row


@dataclass(frozen=True)
class ScanResult:
    param: str
    roots: tuple
    samples: tuple  # (param value, residual or None) pairs
    failures: tuple  # (param value, message)

    def to_dict(self):
        return {
            "param": self.param,
            "roots": list(self.roots),
            "samples": [[v, r] for v, r in self.samples],
            "failures": [[v, msg] for v, msg in self.failures],
        }


def parameter_scan(spec, param, lo, hi, samples, probe_point):
    """Roots of the normal residual as a function of one parameter.

    Samples the residual r on the uniform grid scan_grid(lo, hi, samples)
    at a fixed probe point, and bisects the sign changes between the
    samples with bisect_samples.  Evaluation failures are reported and the
    sample skipped.

    The parameter enters as an array at the probe point's floats, so one
    PointGeometry evaluates a whole batch of values, and `each` batches
    the samples, as it batches every round of bisection.
    """
    if not (lo < hi and np.isfinite(hi - lo)):  # a finite width ends bisection
        raise UsageError(f"scan range [{lo}, {hi}] is empty or too wide")
    if samples < 2:
        raise UsageError("scan needs at least 2 samples")
    if param not in spec.params:
        raise UsageError(f"unknown parameter {param!r}")
    spec.require_hypersurface()

    with range_policy():
        point = tuple(float(c) for c in probe_point)
        grid = scan_grid(lo, hi, samples)
        row = each(_scan_residuals(spec, param, point), grid)
        values = []
        failures = []
        for i, x in enumerate(grid):
            try:
                values.append((x, row(i)))
            except WarpgeoError as exc:
                values.append((x, None))
                failures.append((x, str(exc)))
        return bisect_samples(spec, param, point, values, failures)


def scan_grid(lo, hi, samples):
    """The parameter values, floats, that parameter_scan samples."""
    return [float(x) for x in np.linspace(lo, hi, samples)]


def _scan_residuals(spec, param, point):
    """xs -> the normal residual of `spec` at the float point `point` with
    `param` at each value of the list xs, from one PointGeometry."""

    def residuals(xs):
        # the batch comes from the param alone, and a param no component
        # reads leaves the geometry unbatched: one residual for every x
        scanned = spec.with_params(**{param: np.array(xs)})
        r = normal_residual(PointGeometry(scanned, point))
        return np.broadcast_to(r, len(xs))

    return residuals


def bisect_samples(spec, param, probe_point, samples, failures=()):
    """The ScanResult of parameter_scan(spec, param, ..., probe_point) from
    its sampled (x, residual) pairs `samples`, in increasing x, a residual
    None where its sample failed, and those samples' (x, message) pairs
    `failures`.  Only the rounds of bisection are built here, so a caller
    that holds the sampled residuals as rows of its own build passes them.

    Brackets sign changes between samples that did not fail, and bisects
    each bracket from its sampled ends (x0, r0), (x1, r1): the step halves,
    x = left + step becomes the left end when r(x) has the sign of r0 or
    is 0, and x is the root once r(x) == 0 or |step| < _XTOL + _RTOL |x|.
    Signs are compared, not products, which can underflow.  A bisection
    that raises or closes on a pole is a failure, not a root: at a simple
    root the residual at bisection's last two points is a reference secant
    slope times the last bracket width, within a factor _ROOT_RATE_BAND; at
    a pole of the scene it grows past that or vanishes far faster.  The
    reference is the bracket bisection held _SLOPE_LAG halvings before it
    stopped (the sampled bracket after fewer halvings): narrow enough that
    a simple root is linear across it even when the sampled bracket spans
    decades.

    `each` batches every round of bisection.  A round's batch holds, for
    every open bracket, each midpoint the next _SCAN_DEPTH halvings can
    reach (a binary tree of 2^_SCAN_DEPTH - 1 nodes), and, in the
    bracket's first round and after each round whose halvings all went the
    predicted way through the tree, the midpoints beyond the tree of the
    path the secant through the held bracket's ends predicts, down to the
    stopping width (see _Bisection).  Each midpoint is formed with the
    float operations the halvings take on the way to it, and the halvings
    then walk the batch while it holds their next midpoint, so the points
    they evaluate are the ones they would evaluate one at a time: a
    prediction changes only how many rounds they take.  Verify's cone scan
    takes 1 round this way.  `each` evaluates a part of a batch only when a
    walk reads it, so a midpoint no walk reaches never fails the scan.
    """
    with range_policy():
        residuals = _scan_residuals(spec, param, tuple(float(c) for c in probe_point))
        roots = []
        failures = list(failures)
        brackets = []
        for (x0, r0), (x1, r1) in zip(samples, samples[1:]):
            # never bracket across a failed sample
            if r0 is None or r1 is None:
                continue
            if r0 == 0.0:
                roots.append(x0)
                continue
            if np.sign(r0) * np.sign(r1) < 0.0:  # a product of residuals can underflow
                brackets.append(_Bisection(x0, r0, x1, r1))
        active = brackets
        while active:
            xs = []
            for b in active:
                xs += b.midpoints(len(xs))
            row = each(residuals, xs)
            for b in active:
                b.walk(row)
            active = [b for b in active if b.end is None]
        for b in brackets:
            x, message = b.end
            if message is None:
                roots.append(x)
            else:
                failures.append((x, message))
        if samples and samples[-1][1] == 0.0:
            roots.append(samples[-1][0])

        # collapse duplicates from touching brackets
        dedup = []
        for r in sorted(roots):
            if not dedup or abs(r - dedup[-1]) > 10 * _XTOL:
                dedup.append(r)
        return ScanResult(param, tuple(dedup), tuple(samples), tuple(failures))


def _secant(xl, rl, xr, rr):
    """Where the secant through (xl, rl) and (xr, rr) meets 0, or NaN when
    a residual is not finite."""
    if not (np.isfinite(rl) and np.isfinite(rr)):
        return math.nan
    return float(xl - rl * (xr - xl) / (rr - rl))


class _Bisection:
    """The halving loop of one sign-change bracket from its sampled ends
    (x0, r0), (x1, r1), run a round at a time.  `end` is None while it
    runs, then (x, None) for a root x or (x, message) for a failure at x.

    A round's batch holds the tree of the midpoints the next _SCAN_DEPTH
    halvings can reach.  In the bracket's first round, and after each round
    whose halvings all took the predicted branch through the tree, it also
    holds the predicted path beyond the tree: each halving is predicted to
    keep the side that holds the secant root of the bracket held when the
    round starts, and the path follows that prediction down to the stopping
    width, one midpoint per halving, at most _CHUNK midpoints.  A walk
    halves while the batch holds its next midpoint, so a wrong prediction
    costs only the rest of its round: below the tree, the round ends at the
    first halving that leaves the path."""

    def __init__(self, x0, r0, x1, r1):
        self.r0 = r0
        self.left, self.step = x0, x1 - x0
        self.last = ((x0, r0), (x1, r1))  # the last two evaluations
        # the brackets [left, left + step] held, with their residuals
        self.held = deque([(x0, r0, x1, r1)], maxlen=_SLOPE_LAG + 1)
        self.end = None
        self.speculate = True  # whether the next round adds the predicted path

    def midpoints(self, start):
        """This round's batch, to be read from position `start` of the
        round's: the tree in heap order (node i has children 2i + 1, where
        the left end stays, and 2i + 2, where node i becomes the left end),
        then the path beyond it.  Each midpoint is formed with the float
        operations the halvings take on the way to it."""
        self.guess = _secant(*self.held[-1])
        ends = [(self.left, self.step)]  # (left, step) before each node
        xs = []
        while len(xs) < 2**_SCAN_DEPTH - 1:
            left, step = ends[len(xs)]
            step *= 0.5
            xs.append(left + step)
            ends += [(left, step), (xs[-1], step)]
        if self.speculate and math.isfinite(self.guess):
            left, step, tree = self.left, self.step, len(xs)
            for depth in itertools.count(1):  # x is `depth` halvings away
                step *= 0.5
                x = left + step
                if depth > _SCAN_DEPTH:  # x is beyond the tree
                    if len(xs) - tree >= _CHUNK:
                        break
                    xs.append(x)
                if abs(step) < _XTOL + _RTOL * abs(x):
                    break
                if self.guess > x:
                    left = x
        self.index = {x: start + i for i, x in enumerate(xs)}
        return xs

    def walk(self, row):
        """Halve while this round's batch holds the next midpoint, reading
        the residual at position i of the round's from row(i)."""
        on_path = math.isfinite(self.guess)
        for depth in itertools.count(1):
            step = self.step * 0.5
            x = self.left + step
            if x not in self.index:
                self.speculate = on_path
                return
            self.step = step
            try:
                r = row(self.index[x])
            except WarpgeoError as exc:
                self.end = (x, str(exc))
                return
            self.last = (self.last[1], (x, r))
            rightward = np.sign(r) * np.sign(self.r0) >= 0.0  # x becomes the left end
            if depth <= _SCAN_DEPTH:
                on_path = on_path and rightward == (self.guess > x)
            if rightward:
                self.left = x
                self.held.append((x, r) + self.held[-1][2:])
            else:
                self.held.append(self.held[-1][:2] + (x, r))
            if r == 0.0 or abs(self.step) < _XTOL + _RTOL * abs(x):
                self.end = (x, self._pole_test())
                return

    def _pole_test(self):
        """None at a simple root, else the failure message of a pole."""
        (xa, ra), (xb, rb) = self.last
        near, width = max(abs(ra), abs(rb)), abs(xb - xa)
        xl, rl, xr, rr = self.held[0]
        ratio = near / (abs(rr - rl) / (xr - xl) * width)
        if rb == 0.0 or 1.0 / _ROOT_RATE_BAND <= ratio <= _ROOT_RATE_BAND:
            return None
        return (
            f"pole: residual {near:g} over a last bracket of width "
            f"{width:g} is not in proportion to it"
        )
