"""Hypersurface biharmonicity: normal/tangential residuals of the
bitension split, classification flags, and parameter root scans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from .errors import UsageError, WarpgeoError
from .immersion import PointGeometry


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

    a_grad = pg.S_val @ pg.grad_lam  # intrinsic components of A(grad lambda)
    ric_eta = (spec.n - 1) * spec.ambient.c * pg.eta_val
    # tangential projection of ric_eta onto span{dX_i} (zero for space forms)
    rhs = pg.e2_val * (pg.dX_val @ ric_eta)
    ric_eta_tan = pg.ginv_val @ rhs

    t_intr = m * (2.0 * a_grad + m * pg.lam * pg.grad_lam - 2.0 * pg.lam * ric_eta_tan)
    t_amb = pg.dX_val.T @ t_intr
    norm = float(np.sqrt(max(t_intr @ pg.g_val @ t_intr, 0.0)))
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

    `geometries`, if given, holds the PointGeometry of each point."""
    points = [tuple(p) for p in points]
    if not points:
        raise UsageError("classify needs at least one point")
    if geometries is None:
        geometries = (PointGeometry(spec, p) for p in points)
    m = spec.m
    max_n = max_t = max_h = 0.0
    scale = 0.0
    for p, pg in zip(points, geometries, strict=True):
        pg.require_hypersurface()
        scale = max(scale, m * (1.0 + abs(pg.lam)) * (1.0 + pg.normA2))
        max_n = max(max_n, abs(normal_residual(spec, p, geometry=pg)))
        _, tnorm = tangential_residual(spec, p, geometry=pg)
        max_t = max(max_t, tnorm)
        max_h = max(max_h, pg.normH)
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


def parameter_scan(spec, param, lo, hi, samples, probe_point, xtol=1e-10):
    """Roots of the normal residual as a function of one parameter.

    Samples the residual on a uniform grid at a fixed probe point, brackets
    sign changes, and refines each bracket by bisection.  Evaluation
    failures are reported and the sample skipped.
    """
    if not lo < hi:
        raise UsageError(f"empty scan range [{lo}, {hi}]")
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
            roots.append(float(bisect(residual, x0, x1, xtol=xtol)))
    if values and values[-1][1] == 0.0:
        roots.append(values[-1][0])

    # collapse duplicates from touching brackets
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 10 * xtol:
            dedup.append(r)
    return ScanResult(param, tuple(dedup), tuple(values), tuple(failures))
