"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run with -s to see them) and
covers one headline guarantee of the package at its stated tolerance.
"""

import math
import random

import numpy as np
import pytest

from warpgeo import biharmonic, jet as J, oracle, warped
from warpgeo.ambient import AmbientChart
from warpgeo.errors import WarpgeoError
from warpgeo.expr import BinOp, Call, Name, Neg, Num, eval_jet, eval_value
from warpgeo.immersion import PointGeometry, immersion
from warpgeo.verify import SLICE_POINTS, T_SAMPLES, WARP_INTERVAL, cone, sphere_slice

WARPS = ("exp(t)", "sqrt(t+2)", "2+cos(t)")


def record(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}")
    assert not failures, failures[:5]


def test_01_sphere_slice_reproduction():
    bad = []
    spec = sphere_slice(1.0)
    for p in SLICE_POINTS:
        pg = PointGeometry(spec, p)
        if abs(pg.lam - 1.0) > 1e-9:
            bad.append(("lambda", p, pg.lam))
        if abs(pg.normA2 - 2.0) > 1e-8:
            bad.append(("normA2", p, pg.normA2))
        if abs(pg.lap_lam) > 1e-7:
            bad.append(("lapLambda", p, pg.lap_lam))
        res = biharmonic.normal_residual(pg)
        if abs(res) > 1e-7:
            bad.append(("residual", p, res))
    spec2 = sphere_slice(2.0)
    for p in SLICE_POINTS:
        res = biharmonic.normal_residual(PointGeometry(spec2, p))
        if abs(res - 24.0) > 1e-6:
            bad.append(("residual r=2", p, res))
    record(1, "CMC slice geometry and residuals", bad)


def test_02_cone_reproduction():
    bad = []
    for r in (1.0, 2.0):
        spec = cone(r)
        for u in (0.5, 1.0, 2.0):
            pg = PointGeometry(spec, (u, 1.0))
            lam = 1.0 / (2.0 * r * math.sqrt(1 + r * r) * u)
            lap = 1.0 / (2.0 * r * (1 + r * r) ** 1.5 * u**3)
            a2 = 1.0 / (r * r * (1 + r * r) * u * u)
            for name, got, ref in (
                ("lambda", pg.lam, lam),
                ("lapLambda", pg.lap_lam, lap),
                ("normA2", pg.normA2, a2),
            ):
                if abs(got - ref) > 1e-8 * abs(ref):
                    bad.append((name, r, u, got, ref))
    scan = biharmonic.parameter_scan(cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0))
    if len(scan.roots) != 1 or abs(scan.roots[0] - 1.0) > 1e-6:
        bad.append(("scan", scan.roots))
    record(2, "cone closed forms and root scan", bad)


def _scenes():
    cases = []
    for label, spec, point in (
        ("slice", sphere_slice(1.0), (0.3, -0.2)),
        ("cone", cone(1.0), (1.0, 0.7)),
    ):
        for src in WARPS:
            scene = warped.warped_scene(spec, src, {}, WARP_INTERVAL)
            cases.append((label, src, scene, point))
    return cases


def test_03_tension_oracle_equivalence():
    bad = []
    for label, src, scene, point in _scenes():
        ms = oracle.warped_inclusion_map(scene)
        base = warped.base_point(scene.immersion, point)
        for t in T_SAMPLES:
            fp = oracle.tension_first_principles(ms, (t,) + point)
            w = scene.warp_at(t)
            closed = warped.inclusion_tension(base, w)
            diff = warped.hbar_norm(base, w, fp - closed)
            scale = 1.0 + warped.hbar_norm(base, w, closed)
            if diff > 1e-9 * scale:
                bad.append((label, src, t, diff))
            if abs(fp[0]) > 1e-12:
                bad.append((label, src, t, "dt component", fp[0]))
    record(3, "tension vs first principles", bad)


def test_04_bitension_oracle_equivalence():
    bad = []
    point = (0.3, -0.2)
    for label, src, scene, _ in _scenes():
        if label != "slice":
            continue
        ms = oracle.warped_inclusion_map(scene)
        base = warped.base_point(scene.immersion, point)
        for t in T_SAMPLES:
            fp = oracle.bitension_first_principles(ms, (t,) + point)
            w = scene.warp_at(t)
            closed = warped.inclusion_bitension(base, w)
            diff = warped.hbar_norm(base, w, fp - closed.vec)
            scale = 1.0 + warped.hbar_norm(base, w, closed.vec)
            if diff > 1e-6 * scale:
                bad.append((src, t, diff))
    record(4, "bitension vs first principles", bad)


def test_05_pairing_values():
    bad = []
    scene = warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, WARP_INTERVAL)
    base = warped.base_point(scene.immersion, (0.3, -0.2))
    for t, ref in ((0.0, 16.0), (0.5, 16.0 * math.exp(-1.0))):
        pr = warped.pairing(base, scene.warp_at(t))
        if abs(pr.pairing - ref) > 1e-6:
            bad.append(("direct", t, pr.pairing, ref))
        if abs(pr.pairing_closed_form - ref) > 1e-6:
            bad.append(("closed", t, pr.pairing_closed_form, ref))
        if not pr.pairing_closed_form_applicable:
            bad.append(("gate", t))
    record(5, "exponential-warp pairing", bad)


def test_06_power_family():
    bad = []
    for a, b, m in ((1.0, 2.0, 2), (3.0, 1.0, 3), (-0.5, 4.0, 2)):
        spec = sphere_slice(1.0, m=m)
        point = (0.3, -0.2, 0.1)[:m]
        params = {"a": a, "b": b, "m": m}
        scene = warped.warped_scene(spec, "(a*t+b)^(1/m)", params, (0.0, 1.5))
        base = warped.base_point(spec, point)
        for t in np.linspace(0.05, 1.45, 5):
            w = scene.warp_at(t)
            res = w.power_residual(m)
            if abs(res) > 1e-12:
                bad.append(("residual", a, b, m, float(t), res))
            pr = warped.pairing(base, w)
            if abs(pr.pairing) > 1e-9:
                bad.append(("pairing", a, b, m, float(t), pr.pairing))
    record(6, "power-family warps are biharmonic", bad)


def test_07_tangential_vanishing():
    bad = []
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    base = warped.base_point(spec, point)
    cosw = warped.warped_scene(spec, "2+cos(t)", {}, WARP_INTERVAL)
    if warped.inclusion_bitension(base, cosw.warp_at(0.0)).tangential_norm > 1e-8:
        bad.append("tangential nonzero at critical t")
    if warped.inclusion_bitension(base, cosw.warp_at(0.5)).tangential_norm < 0.05:
        bad.append("tangential too small at t=0.5")
    w = warped.warped_scene(spec, "2+t^2", {}, WARP_INTERVAL).warp_at(0.0)
    v = warped.inclusion_bitension(base, w).vec
    if warped.hbar_norm(base, w, v) < 0.5:
        bad.append("bitension vanished despite f'' != 0")
    w = warped.warped_scene(spec, "2+t^3", {}, WARP_INTERVAL).warp_at(0.0)
    v = warped.inclusion_bitension(base, w).vec
    if warped.hbar_norm(base, w, v) > 1e-7:
        bad.append("bitension nonzero despite f' = f'' = 0")
    record(7, "tangential-part vanishing criteria", bad)


def test_08_warped_ricci_identity():
    bad = []
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    pg = PointGeometry(spec, point)
    base = warped.base_point(spec, point)
    x = np.array([1.0, 0.0]) / math.sqrt(pg.g_val[0, 0])

    def check(scene, t):
        riemann, _ = oracle.curvature_components(
            oracle.warped_inclusion_map(scene), (t,) + point
        )
        return warped.ricci_warped_check(base, scene.warp_at(t), x, riemann)

    for src in WARPS:
        scene = warped.warped_scene(spec, src, {}, WARP_INTERVAL)
        for t in T_SAMPLES:
            rc = check(scene, t)
            if abs(rc.identity_residual) > 1e-6:
                bad.append(("identity", src, t, rc.identity_residual))
            tol = 1e-7 * (1.0 + abs(rc.pairing_closed_form))
            if abs(rc.pairing_via_ricci - rc.pairing_closed_form) > tol:
                bad.append(("pairing", src, t))
    rc = check(warped.warped_scene(spec, "exp(t)", {}, WARP_INTERVAL), 0.0)
    if abs(rc.ric_warped) > 1e-6:
        bad.append(("flat warped Ricci", rc.ric_warped))
    record(8, "warped Ricci identity", bad)


# -- random expression generator for criterion 9 ---------------------------

_SPAN = (0, 0)


def _gen_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.55:
            return Name(rng.choice(("u", "v")), _SPAN)
        return Num(round(rng.uniform(0.3, 2.5), 3), _SPAN)
    k = rng.random()
    if k < 0.5:
        op = rng.choice("+-*/")
        return BinOp(op, _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1), _SPAN)
    if k < 0.65:
        return Neg(_gen_expr(rng, depth - 1), _SPAN)
    if k < 0.9:
        fn = rng.choice(("sin", "cos", "exp", "log", "sqrt"))
        return Call(fn, _gen_expr(rng, depth - 1), _SPAN)
    expo = rng.choice((2.0, 3.0, 0.5, -1.0))
    return BinOp("^", _gen_expr(rng, depth - 1), Num(expo, _SPAN), _SPAN)


def _stencil(ast, u0, v0, h):
    vals = {}
    for du in (-1, 0, 1):
        for dv in (-1, 0, 1):
            vals[du, dv] = eval_value(ast, {"u": u0 + du * h, "v": v0 + dv * h})
    return vals


def test_09_jet_correctness():
    bad = []
    rng = random.Random(20240817)
    h = 1e-5
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 3000:
        attempts += 1
        ast = _gen_expr(rng, rng.randint(1, 5))
        u0 = rng.uniform(0.6, 1.6)
        v0 = rng.uniform(0.6, 1.6)
        try:
            f = _stencil(ast, u0, v0, h)
            jets = {
                "u": J.jet_variable(0, u0, 2, 2),
                "v": J.jet_variable(1, v0, 2, 2),
            }
            jet = eval_jet(ast, jets)
        except (WarpgeoError, OverflowError):
            continue
        if max(abs(x) for x in f.values()) > 20.0:
            continue
        if any(abs(jet.partial(a)) > 50.0 for a in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))):
            continue
        refs = {
            (1, 0): (f[1, 0] - f[-1, 0]) / (2 * h),
            (0, 1): (f[0, 1] - f[0, -1]) / (2 * h),
            (2, 0): (f[1, 0] - 2 * f[0, 0] + f[-1, 0]) / h**2,
            (0, 2): (f[0, 1] - 2 * f[0, 0] + f[0, -1]) / h**2,
            (1, 1): (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (4 * h**2),
        }
        for alpha, ref in refs.items():
            tol = 1e-5 * (1.0 + max(abs(ref), abs(f[0, 0])))
            if abs(jet.partial(alpha) - ref) > tol:
                bad.append((checked, alpha, jet.partial(alpha), ref))
        checked += 1
    if checked < 100:
        bad.append(("generator starved", checked))

    # product rule, exact to 1e-13
    nrng = np.random.default_rng(7)
    size = J._space(2, 2).size
    for _ in range(50):
        a = J.Jet(2, 2, nrng.uniform(-2, 2, size))
        b = J.Jet(2, 2, nrng.uniform(-2, 2, size))
        prod = a * b
        for e in ((1, 0), (0, 1)):
            ref = a.value * b.partial(e) + b.value * a.partial(e)
            if abs(prod.partial(e) - ref) > 1e-13 * (1 + abs(ref)):
                bad.append(("product rule", e))

    # first Bianchi on the assembled warped-domain curvature, to 1e-9
    scene = warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, WARP_INTERVAL)
    ms = oracle.warped_inclusion_map(scene)
    for _ in range(3):
        p = (float(nrng.uniform(-0.3, 0.6)), *nrng.uniform(-0.4, 0.4, size=2))
        riem, _ = oracle.curvature_components(ms, p)
        x, y, z = nrng.normal(size=(3, 3))
        cyc = (
            np.einsum("lijk,i,j,k->l", riem, x, y, z)
            + np.einsum("lijk,i,j,k->l", riem, y, z, x)
            + np.einsum("lijk,i,j,k->l", riem, z, x, y)
        )
        if np.abs(cyc).max() > 1e-9:
            bad.append(("bianchi", p, float(np.abs(cyc).max())))
    record(9, "jet partials vs finite differences", bad)


def test_10_chart_invariance():
    bad = []
    a = cone(1.0)
    b = immersion(
        ("u", "v"),
        ("2*r*u*cos(v)", "2*r*u*sin(v)", "2*u"),
        {"r": 1.0},
        AmbientChart("euclidean", 3),
    )
    for u, v in ((0.5, 1.0), (1.0, 0.7), (2.0, 2.5)):
        pa = PointGeometry(a, (u, v))
        pb = PointGeometry(b, (u / 2.0, v))
        na = biharmonic.normal_residual(pa)
        nb = biharmonic.normal_residual(pb)
        _, ta = biharmonic.tangential_residual(pa)
        _, tb = biharmonic.tangential_residual(pb)
        for name, x, y in (
            ("lambda", pa.lam, pb.lam),
            ("normA2", pa.normA2, pb.normA2),
            ("lapLambda", pa.lap_lam, pb.lap_lam),
            ("normal residual", na, nb),
            ("tangential residual", ta, tb),
        ):
            if abs(x - y) > 1e-8 * (1 + abs(x)):
                bad.append((name, u, v, x, y))
    record(10, "parametrization invariance", bad)
