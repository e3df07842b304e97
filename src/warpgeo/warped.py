"""The warped inclusion (I x M, dt^2 + f^2 g) -> (I x N, dt^2 + f^2 h):
closed-form tension and bitension, the tension/bitension pairing, and
the warped Ricci identity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import jet as J
from . import oracle
from .ambient import WarpEval
from .biharmonic import classify
from .errors import ConfigError, EvalDomainError, UsageError, first_failing, range_policy
from .expr import eval_jet, fold_constants, free_symbols, parse
from .immersion import PointGeometry, per_point

BIHARMONIC_GATE_TOL = 1e-7
_POSITIVITY_SAMPLES = 64


@dataclass(frozen=True)
class WarpedScene:
    """A base immersion, a warp expression in t over an interval, and the
    warp's params.

    `warp` is the parsed expression; its names are checked on it.  Every
    evaluation, the positivity samples' first, reads `folded`: the warp
    with each largest subtree that reads no t, its params' names included,
    replaced by its value (`expr.fold_constants`), so a constant such as
    the 1/m of (a*t+b)^(1/m) is evaluated once per scene, not at every t.
    Folding keeps every value bit for bit.  A constant subtree that raises
    is not folded, so it fails as the parsed warp does; one that passes
    through a value out of the float range fails the load at its span."""

    immersion: object  # ImmersionSpec
    warp: object  # ExprAst in t
    warp_params: MappingProxyType
    interval: tuple
    folded: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo < hi and np.isfinite(hi - lo)):  # its samples need a finite width
            raise ConfigError(f"warp interval [{lo}, {hi}] is empty or too wide")
        if "t" in self.warp_params:
            raise ConfigError("warp param 't' would shadow the warp's variable t")
        extra = free_symbols(self.warp) - ({"t"} | set(self.warp_params))
        if extra:
            raise ConfigError(f"unbound identifiers in warp: {sorted(extra)}")
        with range_policy():
            # set once, here: the dataclass is frozen
            object.__setattr__(self, "folded", fold_constants(self.warp, self.warp_params))
            # positivity is checked by sampling; the DSL has no symbolic
            # positivity decision procedure
            ts = np.linspace(lo, hi, _POSITIVITY_SAMPLES + 2)
            f = self.warp_jet(J.jet_variable(0, ts, 1, 0)).coeffs[0]
        if bad := first_failing(np.isfinite(f) & (f > 0.0), ts, f):
            t, v = bad
            raise EvalDomainError(
                f"warping function not positive and finite at t={t:g} (f={v:g})",
                value=v,
            )

    def warp_jet(self, t):
        """The warp as a jet of the jet `t`, whose values must lie in the
        interval, with t's batch shape: every evaluation of the warp
        expression comes here, and evaluates `folded`."""
        lo, hi = self.interval
        v = t.coeffs[0]
        if outside := first_failing((lo <= v) & (v <= hi), v):
            raise UsageError(
                f"t = {outside[0]:g} lies outside the warp interval [{lo:g}, {hi:g}]"
            )
        f = eval_jet(self.folded, {"t": t}, self.warp_params)
        missing = t.coeffs.ndim - f.coeffs.ndim
        if missing:  # a constant warp is one value
            c = f.coeffs.reshape(f.coeffs.shape + (1,) * missing)
            f = J.Jet(f.n_vars, f.order, np.broadcast_to(c, t.coeffs.shape))
        return f

    def warp_at(self, t):
        """The warp and its first two derivatives at t, a float or an array
        of t (a sweep), from one evaluation of the warp jet either way.  A
        sweep's values equal its t one by one, and each check names the
        first t that fails it.  A float t is used as it is, with no array
        made of it."""
        if type(t) is not float:
            t = np.asarray(t, dtype=float)
            t = t if t.ndim else float(t)
        with range_policy():
            f = self.warp_jet(J.jet_variable(0, t, 1, 2))
            return WarpEval(t, f.value, f.partial((1,)), f.partial((2,)))


def warped_scene(immersion_spec, warp_source, warp_params, interval):
    """The WarpedScene of `warp_source` (DSL source or a parsed AST) with
    `warp_params` over `interval`.  Loading checks the warp's names and
    interval, folds its constants once, and samples it for positivity; a
    failure of any of these is raised here."""
    return WarpedScene(
        immersion_spec,
        parse(warp_source) if isinstance(warp_source, str) else warp_source,
        MappingProxyType(dict(warp_params)),
        (float(interval[0]), float(interval[1])),
    )


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BasePoint:
    """What a warped closed form at a point of M reads that does not depend
    on t, N-side vectors in an h-orthonormal frame (chart components times
    h's conformal factor e, the root of the geometry's one e2_val): the
    geometry, e, eH and |H|^2_h.  e tau_2(i), tau_2 of the unwarped
    inclusion, its split tangent and normal to M and the biharmonic gate
    are formed when first read and then kept.  Every array is read-only:
    reports share it."""

    geometry: PointGeometry
    e: float
    eH: np.ndarray
    h2: float

    @cached_property
    def e_tau2_i(self):
        with range_policy():
            return _read_only(self.e * oracle.submanifold_bitension(self.geometry))

    @cached_property
    def e_tau2_i_split(self):
        """(tangential, normal) parts of e tau_2(i), the first its projection
        e^2 dX^T g^-1 dX on span{e dX_i}."""
        pg, v = self.geometry, self.e_tau2_i
        with range_policy():
            tan = np.matvec(pg.dX_val.T, np.matvec(pg.ginv_val, pg.e2_val * (pg.dX_val @ v)))
            return _read_only(tan), _read_only(v - tan)

    @cached_property
    def biharmonic(self):
        """The classify gate; False off hypersurfaces."""
        pg = self.geometry
        with range_policy():
            return pg.spec.is_hypersurface and classify(
                pg.spec, [pg.point], BIHARMONIC_GATE_TOL, geometries=[pg]
            ).biharmonic


# (spec, point bit patterns, BasePoint) of the last build, or None; read
# once and replaced whole: concurrent callers can at worst build twice,
# never mix two entries
_memo = None


def base_point(spec, point):
    """The BasePoint of `spec` at `point`.  The last one built is returned
    again for the same spec object at a point of the same float bit
    patterns, so +0.0 and -0.0 differ; a point holding a NaN never hits."""
    global _memo
    coords = np.asarray(point, dtype=float)
    key = coords.tobytes()
    memo = _memo
    if memo and memo[0] is spec and memo[1] == key and not any(map(math.isnan, coords.flat)):
        return memo[2]
    with range_policy():
        base = base_point_of(PointGeometry(spec, point))
    _memo = (spec, key, base)
    return base


def base_point_of(pg):
    """The BasePoint of the one-point geometry `pg`, a build or a row of a
    batched one, whose arrays are made read-only."""
    with range_policy():
        for a in [*vars(pg).values(), pg.e2.coeffs]:
            if isinstance(a, np.ndarray):
                _read_only(a)
        e = math.sqrt(pg.e2_val)
        h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
        return BasePoint(pg, e, _read_only(e * pg.H_val), h2)


# A vector at a point of I x N is an (n+1,) array of components in the
# h-orthonormal frame (dt, (1 / (f e)) d_a), the dt slot first: a chart
# vector's N components times f e (`to_frame`, `to_chart`).  Over a sweep
# of t the vectors, and every per-t value, carry a leading sweep axis.
# Products of vectors and matrices act vector by vector (np.vecdot and
# np.matvec take np.dot's path for each), and the powers of f and f' are
# WarpEval's, by C's pow, so each t of a sweep equals its one-t value bit
# for bit.


def _per_t(x):
    """A per-t result: a float at one t, an array over a sweep."""
    return x if type(x) is np.ndarray and x.ndim else float(x)


def _vector(t_part, n_part):
    """The vector on I x N with dt component `t_part` (a per-t value) and
    N components `n_part` (..., n)."""
    out = np.empty(n_part.shape[:-1] + (n_part.shape[-1] + 1,))
    out[..., 0] = t_part
    out[..., 1:] = n_part
    return out


def to_frame(base, w, v):
    """The frame components of the warped-chart vector `v`, as the oracle
    gives it, at a BasePoint and a WarpEval."""
    with range_policy():
        return _vector(v[..., 0], per_point(w.f * base.e, 1) * v[..., 1:])


def to_chart(base, w, v):
    """The warped-chart components of the frame vector `v`, as the reports
    write them."""
    with range_policy():
        return _vector(v[..., 0], v[..., 1:] / per_point(w.f * base.e, 1))


def hbar_norm(a):
    """|a| of frame vectors, per t, accumulated by np.hypot component by
    component: no square is formed, so it is finite wherever |a| is
    (tau_2(phi)'s dt slot is about 4e220 at f = 1e-70, past the float range
    squared)."""
    with range_policy():
        return _per_t(np.hypot.reduce(a, axis=-1))


def inclusion_tension(base, w):
    """tau(phi) = (m / f^2) H, with no dt-component: m eH / f in the frame."""
    m = base.geometry.spec.m
    return _vector(0.0, per_point(m / w.f, 1) * base.eH)


class BitensionParts:
    """tau_2(phi) at a BasePoint and a WarpEval, as the vector `vec`, and
    its split relative to T(I x M), dt plus span{dX_i}: the parts
    `tangential` and `normal` and their norms `tangential_norm` and
    `normal_norm` (per t).  H is normal to M, so the N side of the split is
    the BasePoint's split of e tau_2(i) over f^3, with 2m P eH / f^3 in the
    normal part.  Each part is formed when it is first read and then kept,
    so a caller that reads only the pairing forms neither them nor the
    BasePoint's split."""

    def __init__(self, base, t_part, h_part, f3):
        self.base, self.t_part, self.h_part, self.f3 = base, t_part, h_part, f3
        self.vec = _vector(t_part, (h_part + base.e_tau2_i) / f3)

    @cached_property
    def tangential(self):
        with range_policy():
            return _vector(self.t_part, self.base.e_tau2_i_split[0] / self.f3)

    @cached_property
    def normal(self):
        with range_policy():
            return _vector(0.0, (self.h_part + self.base.e_tau2_i_split[1]) / self.f3)

    @cached_property
    def tangential_norm(self):
        return hbar_norm(self.tangential)

    @cached_property
    def normal_norm(self):
        return hbar_norm(self.normal)


def inclusion_bitension(base, w, residual=None):
    """tau_2(phi) = (2m P / f^4) H + (1 / f^4) tau_2(i) - (m^2 f' / f^3) |H|^2 dt,
    with P = f f'' + (m-1) f'^2, `w.power_residual(m)` unless the caller
    has formed it as `residual`: in the frame, [2m P eH + e tau_2(i)] / f^3
    and the same dt slot.

    tau_2(i) is the bitension of the unwarped inclusion i: M -> N, whose
    tension is m H; it comes from the submanifold closed form evaluated on
    the same geometry, so non-biharmonic bases are handled without
    assumption."""
    m = base.geometry.spec.m
    if residual is None:
        residual = w.power_residual(m)
    t_part = -(m**2) * w.f1 / w.f_pow3 * base.h2
    h_part = per_point(2.0 * m * residual, 1) * base.eH
    return BitensionParts(base, t_part, h_part, per_point(w.f_pow3, 1))


@dataclass(frozen=True)
class WarpedReport:
    """tau(phi), tau_2(phi) and their pairing at a BasePoint and a WarpEval:
    floats at one t, arrays over a sweep."""

    base: BasePoint
    warp: WarpEval
    tension: np.ndarray
    bitension: BitensionParts
    pairing: object  # per t
    pairing_closed_form: object
    pairing_closed_form_applicable: bool
    power_residual: object

    def to_dicts(self):
        """One dict per t, of a sweep or of a one-t report, its vectors in
        warped-chart components, built column by column: one tolist() per
        array.  The dict of t number i of a sweep equals that of its one-t
        report."""
        w, b = self.warp, self.bitension

        def column(x):  # a per-t value
            return np.ravel(x).tolist()

        def vectors(v):
            v = to_chart(self.base, w, v).reshape(-1, v.shape[-1])
            return [{"t": t, "n": n} for t, n in zip(v[:, 0].tolist(), v[:, 1:].tolist())]

        ts = column(w.t)
        columns = {
            "t": ts, "f": column(w.f), "f1": column(w.f1), "f2": column(w.f2),
            "point": [list(self.base.geometry.point) for _ in ts],
            "tension": vectors(self.tension),
            "bitension": vectors(b.vec),
            "pairing": column(self.pairing),
            "pairing_closed_form": column(self.pairing_closed_form),
            "pairing_closed_form_applicable": [self.pairing_closed_form_applicable] * len(ts),
            "power_residual": column(self.power_residual),
            "tangential_part_norm": column(b.tangential_norm),
            "normal_part_norm": column(b.normal_norm),
        }
        return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _closed_form_pairing(base, w, residual):
    """2 m^2 P / f^4 |H|^2, the pairing over a biharmonic base, from the
    residual P = f f'' + (m-1) f'^2 the caller has formed."""
    m = base.geometry.spec.m
    return 2.0 * m**2 * residual / w.f_pow4 * base.h2


def pairing(base, w):
    """h(tau_2(phi), tau(phi)) both by direct assembly and by the closed
    form (the latter is valid only over a biharmonic base, gated by
    classification of the same geometry).  P = f f'' + (m-1) f'^2 is
    formed once and read by both.  The first t at which either pairing is
    not finite is an EvalDomainError naming it."""
    base.geometry.spec.require_hypersurface()
    with range_policy():
        residual = w.power_residual(base.geometry.spec.m)
        tau = inclusion_tension(base, w)
        tau2 = inclusion_bitension(base, w, residual)
        direct = _per_t(np.vecdot(tau2.vec, tau))
        closed = _closed_form_pairing(base, w, residual)
    if bad := first_failing((abs(direct) < math.inf) & (abs(closed) < math.inf), w.t, direct):
        t, p = bad
        name = "pairing" if not math.isfinite(p) else "pairing_closed_form"
        raise EvalDomainError(f"{name} is not finite at t = {t:.9g}", value=t)
    return WarpedReport(base, w, tau, tau2, direct, closed, base.biharmonic, residual)


@dataclass(frozen=True)
class RicciCheck:
    ric_base: float  # Ric of (M, g) on X
    ric_warped: object  # per t: Ric of (I x M, dt^2 + f^2 g) on X
    identity_residual: object  # ric_warped - ric_base + power residual
    pairing_via_ricci: object
    pairing_closed_form: object


def ricci_warped_check(base, w, x_intrinsic, riemann):
    """Verify Ric~(X,X) = Ric(X,X) - [f f'' + (m-1) f'^2] for X unit with
    respect to g, and recompute the pairing through the Ricci difference.

    Ric of (M, g) comes from the Christoffels the BasePoint holds.  Ric~
    comes from `riemann`, R^l_{ijk} of (I x M, dt^2 + f^2 g) at (t, point),
    as `oracle.first_principles` or `oracle.curvature_components` of the
    warped inclusion gives it: (d, d, d, d) at one t, (T, d, d, d, d) over
    w's sweep of T values of t.  Each t of a sweep equals its one-t check
    bit for bit."""
    m = base.geometry.spec.m
    x = np.asarray(x_intrinsic, dtype=float)
    if x.shape != (m,):
        raise UsageError(f"X must have {m} components, got shape {x.shape}")
    norm = float(np.sqrt(x @ base.geometry.g_val @ x))
    if not abs(norm - 1.0) <= 1e-10:
        raise UsageError(f"X must be unit with respect to g, |X| = {norm:.12g}")

    ric_base = oracle.ricci(oracle.riemann(base.geometry.gamma_c, m), x)
    ric_warped = oracle.ricci(riemann, np.concatenate(([0.0], x)))
    resid = w.power_residual(m)
    return RicciCheck(
        ric_base=ric_base,
        ric_warped=ric_warped,
        identity_residual=ric_warped - ric_base + resid,
        pairing_via_ricci=2.0 * m**2 / w.f_pow4 * (ric_base - ric_warped) * base.h2,
        pairing_closed_form=_closed_form_pairing(base, w, resid),
    )


def warped_report(scene, t, point):
    """`pairing` at the BasePoint of `scene` at `point` and its warp at t,
    a float or an array of t: a sweep is one warp evaluation and one
    `pairing`."""
    with range_policy():
        w = scene.warp_at(t)
        return pairing(base_point(scene.immersion, point), w)
