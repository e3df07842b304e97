"""The warped inclusion (I x M, dt^2 + f^2 g) -> (I x N, dt^2 + f^2 h):
closed-form tension and bitension, the tension/bitension pairing, and
the warped Ricci identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import oracle
from .ambient import WarpEval
from .biharmonic import classify
from .errors import ConfigError, EvalDomainError, UsageError
from .expr import eval_value, free_symbols, parse
from .immersion import PointGeometry

BIHARMONIC_GATE_TOL = 1e-7
_POSITIVITY_SAMPLES = 64


@dataclass(frozen=True)
class WarpedScene:
    immersion: object  # ImmersionSpec
    warp: object  # ExprAst in t
    warp_params: MappingProxyType
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ConfigError(f"empty warp interval [{lo}, {hi}]")
        extra = free_symbols(self.warp) - ({"t"} | set(self.warp_params))
        if extra:
            raise ConfigError(f"unbound identifiers in warp: {sorted(extra)}")
        # positivity is checked by sampling; the DSL has no symbolic
        # positivity decision procedure
        for t in np.linspace(lo, hi, _POSITIVITY_SAMPLES + 2):
            v = eval_value(self.warp, {"t": float(t), **self.warp_params})
            if not (v > 0.0 and math.isfinite(v)):
                raise EvalDomainError(
                    f"warping function not positive and finite at t={t:g} (f={v:g})",
                    value=v,
                )

    def warp_at(self, t):
        return WarpEval.at(self.warp, t, self.warp_params)


def warped_scene(immersion_spec, warp_source, warp_params, interval):
    return WarpedScene(
        immersion_spec,
        parse(warp_source) if isinstance(warp_source, str) else warp_source,
        MappingProxyType(dict(warp_params)),
        (float(interval[0]), float(interval[1])),
    )


@dataclass(frozen=True)
class WVec:
    """Vector at a point of I x N in warped-chart components."""

    t: float
    n: np.ndarray


@dataclass(frozen=True)
class BasePoint:
    """What a warped report at a point of M reads that does not depend on
    t: the point's geometry, tau_2 of the unwarped inclusion, the biharmonic
    gate of the closed-form pairing and |H|^2_h.  Its arrays and those of
    its geometry are read-only: reports share it."""

    geometry: PointGeometry
    submanifold_bitension: np.ndarray
    biharmonic: bool  # the classify gate; False off hypersurfaces
    h2: float

    def tangential(self, v):
        """The h-orthogonal projection of ambient components v on span{dX_i}."""
        pg = self.geometry
        return pg.dX_val.T @ (pg.ginv_val @ (pg.e2_val * (pg.dX_val @ v)))


# (spec, point bit patterns, BasePoint) of the last _MEMO_SIZE builds, the
# one read last first; the tuple is read and replaced whole: concurrent
# callers can at worst build twice, never mix two entries
_memo = ()
# two: verify's warped checks at one point of the r = 1 slice are
# interleaved with those at one other point (the cone's, then the S3's)
_MEMO_SIZE = 2


def base_point(spec, point):
    """The BasePoint of `spec` at `point`.  The last two read are returned
    again for the same spec object at a point of the same float bit
    patterns, so +0.0 and -0.0 differ; a point holding a NaN never hits."""
    global _memo
    coords = np.asarray(point, dtype=float)
    key = coords.tobytes()
    memo = _memo
    if not np.isnan(coords).any():
        for entry in memo:
            if entry[0] is spec and entry[1] == key:
                _memo = (entry,) + tuple(e for e in memo if e is not entry)
                return entry[2]
    pg = PointGeometry(spec, point)
    tau2_i = oracle.submanifold_bitension(spec, point, geometry=pg)
    for a in [*vars(pg).values(), pg.e2.coeffs, tau2_i]:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    gate = spec.is_hypersurface and classify(
        spec, [point], BIHARMONIC_GATE_TOL, geometries=[pg]
    ).biharmonic
    h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
    base = BasePoint(pg, tau2_i, gate, h2)
    _memo = ((spec, key, base),) + memo[: _MEMO_SIZE - 1]
    return base


def hbar_inner(base, warp, a, b):
    """Inner product of the warped ambient at a BasePoint and a WarpEval:
    h(u, v) = u_t v_t + f^2 h(u_N, v_N)."""
    return a.t * b.t + warp.f**2 * base.geometry.e2_val * float(np.dot(a.n, b.n))


def hbar_norm(base, warp, a):
    return float(np.sqrt(max(hbar_inner(base, warp, a, a), 0.0)))


def inclusion_tension(scene, t, point, warp=None):
    """tau(phi) = (m / f^2) H, with no dt-component."""
    return _tension(scene, base_point(scene.immersion, point), warp or scene.warp_at(t))


def _tension(scene, base, w):
    return WVec(0.0, (scene.immersion.m / w.f**2) * base.geometry.H_val)


@dataclass(frozen=True)
class BitensionParts:
    vec: WVec
    tangential: WVec  # component tangent to I x M
    normal: WVec  # component normal to I x M
    tangential_norm: float
    normal_norm: float


def inclusion_bitension(scene, t, point, warp=None):
    """tau_2(phi) = (2m [f f'' + (m-1) f'^2] / f^4) H
                    + (1 / f^4) tau_2(i)  -  (m^2 f' / f^3) |H|^2 dt.

    tau_2(i) is the bitension of the unwarped inclusion i: M -> N, whose
    tension is m H; it comes from the submanifold closed form evaluated on
    the same geometry, so non-biharmonic bases are handled without
    assumption."""
    return _bitension(scene, base_point(scene.immersion, point), warp or scene.warp_at(t))


def _bitension(scene, base, w):
    m = scene.immersion.m

    coeff = 2.0 * m * w.power_residual(m) / w.f**4
    n_part = coeff * base.geometry.H_val + (1 / w.f**4) * base.submanifold_bitension
    t_part = -(m**2) * w.f1 / w.f**3 * base.h2

    # split relative to T(I x M): dt plus span{dX_i} is tangential
    n_tan = base.tangential(n_part)
    tangential = WVec(t_part, n_tan)
    normal = WVec(0.0, n_part - n_tan)
    return BitensionParts(
        vec=WVec(t_part, n_part),
        tangential=tangential,
        normal=normal,
        tangential_norm=hbar_norm(base, w, tangential),
        normal_norm=hbar_norm(base, w, normal),
    )


@dataclass(frozen=True)
class PairingResult:
    direct: float
    closed_form: float
    closed_form_applicable: bool
    tension: WVec
    bitension: BitensionParts


def pairing(scene, t, point, warp=None):
    """h(tau_2(phi), tau(phi)) both by direct assembly and by the
    closed form 2 m^2 [f f'' + (m-1) f'^2] / f^4 |H|^2 (the latter is
    valid only over a biharmonic base, gated by classification of the
    same geometry).  The tau and tau_2 it pairs are returned with it.
    The warp is evaluated once at t (or taken from `warp`) and the
    BasePoint looked up once, and both are passed on."""
    base = base_point(scene.immersion, point)
    base.geometry.require_hypersurface()
    w = warp or scene.warp_at(t)
    m = scene.immersion.m
    tau = _tension(scene, base, w)
    tau2 = _bitension(scene, base, w)
    direct = hbar_inner(base, w, tau2.vec, tau)
    closed = 2.0 * m**2 * w.power_residual(m) / w.f**4 * base.h2
    return PairingResult(direct, closed, base.biharmonic, tau, tau2)


@dataclass(frozen=True)
class RicciCheck:
    ric_base: float  # Ric of (M, g) on X
    ric_warped: float  # Ric of (I x M, dt^2 + f^2 g) on X
    identity_residual: float  # ric_warped - ric_base + power residual
    pairing_via_ricci: float
    pairing_closed_form: float


def ricci_warped_check(scene, t, point, x_intrinsic, riemann=None):
    """Verify Ric~(X,X) = Ric(X,X) - [f f'' + (m-1) f'^2] for X unit with
    respect to g, and recompute the pairing through the Ricci difference.

    Ric of (M, g) comes from the Christoffels the BasePoint holds.  Ric~
    comes from `riemann`, R^l_{ijk} of (I x M, dt^2 + f^2 g) at (t, point)
    as `oracle.first_principles` of the warped inclusion holds it, or is
    `oracle.curvature_components` of that inclusion when `riemann` is None."""
    spec = scene.immersion
    m = spec.m
    base = base_point(spec, point)
    x = np.asarray(x_intrinsic, dtype=float)
    if x.shape != (m,):
        raise UsageError(f"X must have {m} components, got shape {x.shape}")
    norm = float(np.sqrt(x @ base.geometry.g_val @ x))
    if abs(norm - 1.0) > 1e-10:
        raise UsageError(f"X must be unit with respect to g, |X| = {norm:.12g}")
    w = scene.warp_at(t)

    ric_base = oracle.ricci(oracle.riemann(base.geometry.gamma_c, m), x)
    if riemann is None:
        riemann, _ = oracle.curvature_components(
            oracle.warped_inclusion_map(scene), (float(t),) + tuple(point)
        )
    ric_warped = oracle.ricci(riemann, np.concatenate(([0.0], x)))
    resid = w.power_residual(m)
    via_ricci = 2.0 * m**2 / w.f**4 * (ric_base - ric_warped) * base.h2
    closed = 2.0 * m**2 * resid / w.f**4 * base.h2
    return RicciCheck(
        ric_base=ric_base,
        ric_warped=ric_warped,
        identity_residual=ric_warped - ric_base + resid,
        pairing_via_ricci=via_ricci,
        pairing_closed_form=closed,
    )


@dataclass(frozen=True)
class WarpedReport:
    t: float
    point: tuple
    f: float
    f1: float
    f2: float
    tension: WVec
    bitension: WVec
    pairing: float
    pairing_closed_form: float
    pairing_closed_form_applicable: bool
    power_residual: float
    tangential_part_norm: float
    normal_part_norm: float

    def to_dict(self):
        return {
            "t": self.t,
            "point": list(self.point),
            "f": self.f,
            "f1": self.f1,
            "f2": self.f2,
            "tension": {"t": self.tension.t, "n": self.tension.n.tolist()},
            "bitension": {"t": self.bitension.t, "n": self.bitension.n.tolist()},
            "pairing": self.pairing,
            "pairing_closed_form": self.pairing_closed_form,
            "pairing_closed_form_applicable": self.pairing_closed_form_applicable,
            "power_residual": self.power_residual,
            "tangential_part_norm": self.tangential_part_norm,
            "normal_part_norm": self.normal_part_norm,
        }


def warped_report(scene, t, point):
    w = scene.warp_at(t)
    pr = pairing(scene, t, point, warp=w)
    return WarpedReport(
        t=float(t),
        point=tuple(float(p) for p in point),
        f=w.f,
        f1=w.f1,
        f2=w.f2,
        tension=pr.tension,
        bitension=pr.bitension.vec,
        pairing=pr.direct,
        pairing_closed_form=pr.closed_form,
        pairing_closed_form_applicable=pr.closed_form_applicable,
        power_residual=w.power_residual(scene.immersion.m),
        tangential_part_norm=pr.bitension.tangential_norm,
        normal_part_norm=pr.bitension.normal_norm,
    )
