"""The warped inclusion (I x M, dt^2 + f^2 g) -> (I x N, dt^2 + f^2 h):
closed-form tension and bitension, the tension/bitension pairing, the
power-warping residual, and the warped Ricci identity."""

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


def hbar_inner(scene, t, point_amb, a, b):
    """Inner product of the warped ambient:
    h(u, v) = u_t v_t + f^2 h(u_N, v_N)."""
    w = scene.warp_at(t)
    e2 = scene.immersion.ambient.metric_factor_value(point_amb)
    return a.t * b.t + w.f**2 * e2 * float(np.dot(a.n, b.n))


def hbar_norm(scene, t, point_amb, a):
    return float(np.sqrt(max(hbar_inner(scene, t, point_amb, a, a), 0.0)))


def power_family_residual(warp, t, m, params=None):
    """f f'' + (m-1) (f')^2 at t; vanishes identically exactly on the
    power family f(t) = (a t + b)^{1/m}."""
    if isinstance(warp, str):
        warp = parse(warp)
    w = warp if isinstance(warp, WarpEval) else WarpEval.at(warp, t, params or {})
    return w.power_residual(m)


def inclusion_tension(scene, t, point, geometry=None):
    """tau(phi) = (m / f^2) H, with no dt-component."""
    pg = geometry or PointGeometry(scene.immersion, point)
    w = scene.warp_at(t)
    m = scene.immersion.m
    return WVec(0.0, (m / w.f**2) * pg.H_val)


@dataclass(frozen=True)
class BitensionParts:
    vec: WVec
    mean_curvature_coeff: float  # multiplies H
    submanifold_bitension: np.ndarray  # tau_2 of the unwarped inclusion
    tangential: WVec  # component tangent to I x M
    normal: WVec  # component normal to I x M
    tangential_norm: float
    normal_norm: float


def inclusion_bitension(scene, t, point, geometry=None):
    """tau_2(phi) = (2m [f f'' + (m-1) f'^2] / f^4) H
                    + (m / f^4) tau_2(i)  -  (m^2 f' / f^3) |H|^2 dt.

    tau_2(i) comes from the submanifold closed form evaluated on the same
    geometry, so non-biharmonic bases are handled without assumption."""
    spec = scene.immersion
    pg = geometry or PointGeometry(spec, point)
    w = scene.warp_at(t)
    m = spec.m
    e2 = pg.e2_val
    h2 = e2 * float(np.dot(pg.H_val, pg.H_val))

    coeff = 2.0 * m * w.power_residual(m) / w.f**4
    tau2_i = oracle.submanifold_bitension(spec, point, geometry=pg)
    n_part = coeff * pg.H_val + (m / w.f**4) * tau2_i
    t_part = -(m**2) * w.f1 / w.f**3 * h2
    vec = WVec(t_part, n_part)

    # split relative to T(I x M): dt plus span{dX_i} is tangential
    rhs = e2 * (pg.dX_val @ n_part)
    coeffs = pg.ginv_val @ rhs
    n_tan = pg.dX_val.T @ coeffs
    tangential = WVec(t_part, n_tan)
    normal = WVec(0.0, n_part - n_tan)
    return BitensionParts(
        vec=vec,
        mean_curvature_coeff=coeff,
        submanifold_bitension=tau2_i,
        tangential=tangential,
        normal=normal,
        tangential_norm=hbar_norm(scene, t, pg.X_val, tangential),
        normal_norm=hbar_norm(scene, t, pg.X_val, normal),
    )


@dataclass(frozen=True)
class PairingResult:
    direct: float
    closed_form: float
    closed_form_applicable: bool
    tension: WVec
    bitension: BitensionParts


def pairing(scene, t, point, geometry=None):
    """h(tau_2(phi), tau(phi)) both by direct assembly and by the
    closed form 2 m^2 [f f'' + (m-1) f'^2] / f^4 |H|^2 (the latter is
    valid only over a biharmonic base, gated by classification of the
    same geometry).  The tau and tau_2 it pairs are returned with it."""
    spec = scene.immersion
    pg = geometry or PointGeometry(spec, point)
    w = scene.warp_at(t)
    m = spec.m
    tau = inclusion_tension(scene, t, point, geometry=pg)
    tau2 = inclusion_bitension(scene, t, point, geometry=pg)
    direct = hbar_inner(scene, t, pg.X_val, tau2.vec, tau)
    h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
    closed = 2.0 * m**2 * w.power_residual(m) / w.f**4 * h2
    record = classify(spec, [point], BIHARMONIC_GATE_TOL, geometries=[pg])
    return PairingResult(direct, closed, record.biharmonic, tau, tau2)


@dataclass(frozen=True)
class RicciCheck:
    ric_base: float  # Ric of (M, g) on X
    ric_warped: float  # Ric of (I x M, dt^2 + f^2 g) on X
    identity_residual: float  # ric_warped - ric_base + power residual
    pairing_via_ricci: float
    pairing_closed_form: float


def ricci_warped_check(scene, t, point, x_intrinsic, geometry=None):
    """Verify Ric~(X,X) = Ric(X,X) - [f f'' + (m-1) f'^2] for X unit with
    respect to g, and recompute the pairing through the Ricci difference."""
    spec = scene.immersion
    pg = geometry or PointGeometry(spec, point)
    x = np.asarray(x_intrinsic, dtype=float)
    norm = float(np.sqrt(x @ pg.g_val @ x))
    if abs(norm - 1.0) > 1e-10:
        raise UsageError(f"X must be unit with respect to g, |X| = {norm:.12g}")
    m = spec.m
    w = scene.warp_at(t)

    ric_base = oracle.ricci_from_christoffels(
        oracle.induced_metric_rule(spec), point, x
    )
    ric_warped = oracle.ricci_from_christoffels(
        oracle.warped_domain_metric_rule(scene),
        (float(t),) + tuple(point),
        np.concatenate(([0.0], x)),
    )
    resid = w.power_residual(m)
    h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
    via_ricci = 2.0 * m**2 / w.f**4 * (ric_base - ric_warped) * h2
    closed = 2.0 * m**2 * resid / w.f**4 * h2
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
    pr = pairing(scene, t, point)
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
        power_residual=power_family_residual(w, t, scene.immersion.m),
        tangential_part_norm=pr.bitension.tangential_norm,
        normal_part_norm=pr.bitension.normal_norm,
    )
