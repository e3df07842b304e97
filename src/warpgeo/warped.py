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


@dataclass(frozen=True)
class BasePoint:
    """What a warped closed form at a point of M reads that does not depend
    on t: the point's geometry, tau_2 of the unwarped inclusion, the
    biharmonic gate of the closed-form pairing and |H|^2_h.  Its arrays and
    those of its geometry are read-only: reports share it."""

    geometry: PointGeometry
    submanifold_bitension: np.ndarray
    biharmonic: bool  # the classify gate; False off hypersurfaces
    h2: float

    def tangential(self, v):
        """The h-orthogonal projection of ambient components v (..., n) on
        span{dX_i}."""
        pg = self.geometry
        return np.matvec(pg.dX_val.T, np.matvec(pg.ginv_val, pg.e2_val * np.matvec(pg.dX_val, v)))


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
    batched one: tau_2(i), the classify gate and |H|^2_h of the geometry
    as it is, whose arrays, and the BasePoint's, are made read-only."""
    spec = pg.spec
    with range_policy():
        tau2_i = oracle.submanifold_bitension(pg)
        for a in [*vars(pg).values(), pg.e2.coeffs, tau2_i]:
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        gate = spec.is_hypersurface and classify(
            spec, [pg.point], BIHARMONIC_GATE_TOL, geometries=[pg]
        ).biharmonic
        h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
    return BasePoint(pg, tau2_i, gate, h2)


# A vector at a point of I x N is an (n+1,) array of warped-chart
# components, the dt slot first; over a sweep of t the vectors, and every
# per-t value, carry a leading sweep axis.  Products of vectors and
# matrices act vector by vector (np.vecdot and np.matvec take np.dot's
# path for each), and the powers of f and f' are WarpEval's, by C's pow, so
# each t of a sweep equals its one-t value bit for bit.


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


def hbar_inner(base, w, a, b):
    """Inner product of the warped ambient at a BasePoint and a WarpEval:
    h(u, v) = u_t v_t + f^2 h(u_N, v_N)."""
    e2 = base.geometry.e2_val
    ab = np.vecdot(a[..., 1:], b[..., 1:])
    return _per_t(a.T[0] * b.T[0] + w.f_pow2 * e2 * ab)  # .T[0]: the dt slots


def hbar_norm(base, w, a):
    # h is positive definite: a sum of squares, never negative or -0.0
    return _per_t(np.sqrt(hbar_inner(base, w, a, a)))


def inclusion_tension(base, w):
    """tau(phi) = (m / f^2) H, with no dt-component."""
    m = base.geometry.spec.m
    return _vector(0.0, per_point(m / w.f_pow2, 1) * base.geometry.H_val)


class BitensionParts:
    """tau_2(phi) at a BasePoint and a WarpEval, as the vector `vec`, and
    its split relative to T(I x M), dt plus span{dX_i}: the parts
    `tangential` and `normal` and their h-norms `tangential_norm` and
    `normal_norm` (per t).  Each is formed when it is first read and then
    kept, so a caller that reads only the pairing does not form them."""

    def __init__(self, base, w, t_part, n_part):
        self.base, self.w = base, w
        self.t_part, self.n_part = t_part, n_part
        self.vec = _vector(t_part, n_part)

    @cached_property
    def tangential(self):
        with range_policy():
            return _vector(self.t_part, self.base.tangential(self.n_part))

    @cached_property
    def normal(self):
        with range_policy():
            return _vector(0.0, self.n_part - self.tangential[..., 1:])

    @cached_property
    def tangential_norm(self):
        with range_policy():
            return hbar_norm(self.base, self.w, self.tangential)

    @cached_property
    def normal_norm(self):
        with range_policy():
            return hbar_norm(self.base, self.w, self.normal)


def inclusion_bitension(base, w, residual=None):
    """tau_2(phi) = (2m P / f^4) H + (1 / f^4) tau_2(i) - (m^2 f' / f^3) |H|^2 dt,
    with P = f f'' + (m-1) f'^2, `w.power_residual(m)` unless the caller
    has formed it as `residual`.

    tau_2(i) is the bitension of the unwarped inclusion i: M -> N, whose
    tension is m H; it comes from the submanifold closed form evaluated on
    the same geometry, so non-biharmonic bases are handled without
    assumption."""
    m = base.geometry.spec.m
    if residual is None:
        residual = w.power_residual(m)
    f4 = w.f_pow4
    coeff = 2.0 * m * residual / f4
    n_part = per_point(coeff, 1) * base.geometry.H_val + per_point(
        1 / f4, 1
    ) * base.submanifold_bitension
    t_part = -(m**2) * w.f1 / w.f_pow3 * base.h2
    return BitensionParts(base, w, t_part, n_part)


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
        """One dict per t, of a sweep or of a one-t report, built column by
        column: one tolist() per array.  The dict of t number i of a sweep
        equals that of its one-t report."""

        def column(x):  # a per-t value
            return np.ravel(x).tolist()

        w, b = self.warp, self.bitension
        tau, tau2 = (x.reshape(-1, x.shape[-1]) for x in (self.tension, b.vec))
        rows = zip(
            column(w.t), column(w.f), column(w.f1), column(w.f2),
            tau[:, 0].tolist(), tau[:, 1:].tolist(), tau2[:, 0].tolist(), tau2[:, 1:].tolist(),
            column(self.pairing), column(self.pairing_closed_form),
            column(self.power_residual), column(b.tangential_norm), column(b.normal_norm),
        )
        point = self.base.geometry.point
        return [
            {
                "t": t, "f": f, "f1": f1, "f2": f2,
                "point": list(point),
                "tension": {"t": tau_t, "n": tau_n},
                "bitension": {"t": tau2_t, "n": tau2_n},
                "pairing": p,
                "pairing_closed_form": p_closed,
                "pairing_closed_form_applicable": self.pairing_closed_form_applicable,
                "power_residual": residual,
                "tangential_part_norm": tan_norm,
                "normal_part_norm": normal_norm,
            }
            for (
                t, f, f1, f2, tau_t, tau_n, tau2_t, tau2_n,
                p, p_closed, residual, tan_norm, normal_norm,
            ) in rows
        ]


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
        direct = hbar_inner(base, w, tau2.vec, tau)
        closed = _closed_form_pairing(base, w, residual)
    if bad := first_failing((abs(direct) < math.inf) & (abs(closed) < math.inf), w.t, direct):
        t, p = bad
        name = "pairing" if not math.isfinite(p) else "pairing_closed_form"
        raise EvalDomainError(f"{name} is not finite at t = {t:.9g}", value=t)
    return WarpedReport(
        base=base,
        warp=w,
        tension=tau,
        bitension=tau2,
        pairing=direct,
        pairing_closed_form=closed,
        pairing_closed_form_applicable=base.biharmonic,
        power_residual=residual,
    )


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
