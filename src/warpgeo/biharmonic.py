"""Hypersurface biharmonicity: normal/tangential residuals of the
bitension split, classification flags, and parameter root scans."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, WarpgeoError
from .immersion import PointGeometry, matvec, mT, per_point, vdot

# parameter_scan's root test: simple roots of the fixture scans measure
# 0.4-2.7 against it, the pole of the graph u^2/(r-1) + v^2 measures 4e-10.
_ROOT_RATE_BAND = 1e3
_XTOL = 1e-10
_RTOL = 4 * sys.float_info.epsilon


def normal_residual(spec, point, geometry=None):
    """m [ -Delta(lambda) + lambda |A|^2 - lambda Ric(eta, eta) ]."""
    pg = geometry or PointGeometry(spec, point)
    pg.require_hypersurface()
    m = spec.m
    return m * (-pg.lap_lam + pg.lam * pg.normA2 - pg.lam * pg.ric_eta_eta)


def tangential_residual(spec, point, geometry=None):
    """m [ 2 A(grad lambda) + m lambda grad lambda - 2 lambda (Ricci eta)^T ].

    Returns (ambient components, induced-metric norm).  The Ricci operator
    of a space form is (n-1)c * identity, so its eta-image is purely
    normal; the tangential projection is kept in the code path so the
    formula is evaluated verbatim.
    """
    pg = geometry or PointGeometry(spec, point)
    pg.require_hypersurface()
    m = spec.m

    a_grad = matvec(pg.S_val, pg.grad_lam)  # intrinsic components of A(grad lambda)
    ric_eta = (spec.n - 1) * spec.ambient.c * pg.eta_val
    # tangential projection of ric_eta onto span{dX_i} (zero for space forms)
    rhs = per_point(pg.e2_val, 1) * matvec(pg.dX_val, ric_eta)
    ric_eta_tan = matvec(pg.ginv_val, rhs)

    lam = per_point(pg.lam, 1)
    t_intr = m * (2.0 * a_grad + m * lam * pg.grad_lam - 2.0 * lam * ric_eta_tan)
    t_amb = matvec(mT(pg.dX_val), t_intr)
    norm = np.sqrt(np.maximum(vdot(t_intr, matvec(pg.g_val, t_intr)), 0.0))
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
    points (one per point, or batched); otherwise the points are evaluated
    as one batch.  A maximum over residuals one of which is NaN is NaN,
    so a NaN residual never passes a tolerance."""
    points = [tuple(p) for p in points]
    if not points:
        raise UsageError("classify needs at least one point")
    if geometries is None:
        geometries = _geometries(spec, points)
    m = spec.m
    max_n = max_t = max_h = 0.0
    scale = 0.0
    for pg in geometries:
        pg.require_hypersurface()
        scale = _max(scale, m * (1.0 + np.abs(pg.lam)) * (1.0 + pg.normA2))
        max_n = _max(max_n, np.abs(normal_residual(spec, pg.point, geometry=pg)))
        _, tnorm = tangential_residual(spec, pg.point, geometry=pg)
        max_t = _max(max_t, tnorm)
        max_h = _max(max_h, pg.normH)
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


def _max(acc, values):
    """The largest of `acc` and `values` (a float or a batch array); NaN
    if any of them is NaN."""
    return float(np.asarray(values).max(initial=acc))


def _geometries(spec, points):
    """The PointGeometry of `points` as one batch.  If the batch raises,
    the points are evaluated one by one, so the error raised is the one of
    the first failing point."""
    if all(len(p) == spec.m for p in points):
        try:
            return [PointGeometry(spec, np.array(points, dtype=float).T)]
        except WarpgeoError:
            pass
    return (PointGeometry(spec, p) for p in points)


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

    Samples the residual r on a uniform grid at a fixed probe point,
    brackets sign changes, and bisects each bracket from its sampled ends
    (x0, r0), (x1, r1): the step halves, x = left + step becomes the left
    end when r(x) r0 >= 0, and x is the root once r(x) == 0 or
    |step| < _XTOL + _RTOL |x|.  Evaluation failures are reported and the
    sample skipped.  A bisection that raises or closes on a pole is a
    failure, not a root: at a simple root the residual at bisection's last
    two points is the bracket's secant slope times the last bracket width,
    within a factor _ROOT_RATE_BAND; at a pole of the scene it grows past
    that or vanishes far faster.
    """
    if not (lo < hi and np.isfinite(hi - lo)):  # a finite width ends bisection
        raise UsageError(f"scan range [{lo}, {hi}] is empty or too wide")
    if samples < 2:
        raise UsageError("scan needs at least 2 samples")
    if param not in spec.params:
        raise UsageError(f"unknown parameter {param!r}")

    def residual(value):
        return normal_residual(spec.with_params(**{param: value}), probe_point)

    grid = np.linspace(lo, hi, samples)
    values = []
    failures = []
    for x in grid:
        try:
            values.append((float(x), residual(float(x))))
        except WarpgeoError as exc:
            values.append((float(x), None))
            failures.append((float(x), str(exc)))

    roots = []
    for (x0, r0), (x1, r1) in zip(values, values[1:]):
        # never bracket across a failed sample
        if r0 is None or r1 is None:
            continue
        if r0 == 0.0:
            roots.append(x0)
            continue
        if r0 * r1 < 0.0:
            (xa, ra), (xb, rb) = (x0, r0), (x1, r1)  # the last two evaluations
            left, step = x0, x1 - x0
            try:
                while True:
                    step *= 0.5
                    x = left + step
                    (xa, ra), (xb, rb) = (xb, rb), (x, residual(x))
                    if rb * r0 >= 0.0:
                        left = x
                    if rb == 0.0 or abs(step) < _XTOL + _RTOL * abs(x):
                        break
            except WarpgeoError as exc:
                failures.append((x, str(exc)))
                continue
            near, width = max(abs(ra), abs(rb)), abs(xb - xa)
            ratio = near / (abs(r1 - r0) / (x1 - x0) * width)
            if rb == 0.0 or 1.0 / _ROOT_RATE_BAND <= ratio <= _ROOT_RATE_BAND:
                roots.append(x)
            else:
                failures.append(
                    (x, f"pole: residual {near:g} over a last bracket of width "
                        f"{width:g} is not in proportion to it")
                )
    if values and values[-1][1] == 0.0:
        roots.append(values[-1][0])

    # collapse duplicates from touching brackets
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 10 * _XTOL:
            dedup.append(r)
    return ScanResult(param, tuple(dedup), tuple(values), tuple(failures))
