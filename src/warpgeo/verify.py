"""Built-in verification suite: the closed-form fixtures the engine must
reproduce, each cross-checked against the first-principles oracle.

Every check is a (name, expected, got, tol) record; `run_checks` evaluates
them in a fixed order so two runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import biharmonic, oracle, warped
from .ambient import AmbientChart
from .immersion import PointGeometry, immersion


def sphere_slice(r=1.0, m=2):
    """The surface {last coordinate = r} in the stereographic chart of the
    (m+1)-sphere; a round m-sphere of constant mean curvature r."""
    variables = ["u", "v", "w", "s"][:m]
    components = variables + ["r"]
    return immersion(variables, components, {"r": r}, AmbientChart("sphere", m + 1))


def cone(r=1.0):
    """Surface of revolution (r u cos v, r u sin v, u) in Euclidean 3-space."""
    return immersion(
        ("u", "v"),
        ("r*u*cos(v)", "r*u*sin(v)", "u"),
        {"r": r},
        AmbientChart("euclidean", 3),
    )


SLICE_POINTS = ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.1), (0.2, 0.4), (-0.1, -0.3))
CONE_POINTS = ((0.5, 1.0), (1.0, 0.7), (2.0, 2.5))

WARPS = (("exp(t)", {}), ("sqrt(t+2)", {}), ("2+cos(t)", {}))
WARP_INTERVAL = (-0.5, 1.0)
T_SAMPLES = (0.0, 0.3)


@dataclass(frozen=True)
class Check:
    name: str
    expected: float
    got: float
    tol: float

    @property
    def passed(self):
        return bool(abs(self.got - self.expected) <= self.tol)

    def row(self):
        return {
            "name": self.name,
            "expected": self.expected,
            "got": self.got,
            "tol": self.tol,
            "pass": self.passed,
        }


def _checks_example_sphere_slice():
    out = []
    spec = sphere_slice(1.0)
    for p in SLICE_POINTS:
        pg = PointGeometry(spec, p)
        tag = f"({p[0]:g},{p[1]:g})"
        out.append(Check(f"sphere-slice r=1 lambda {tag}", 1.0, pg.lam, 1e-9))
        out.append(Check(f"sphere-slice r=1 |A|^2 {tag}", 2.0, pg.normA2, 1e-8))
        out.append(Check(f"sphere-slice r=1 lapLambda {tag}", 0.0, pg.lap_lam, 1e-7))
        out.append(
            Check(
                f"sphere-slice r=1 normal residual {tag}",
                0.0,
                biharmonic.normal_residual(spec, p, geometry=pg),
                1e-7,
            )
        )
    spec2 = sphere_slice(2.0)
    for p in SLICE_POINTS:
        out.append(
            Check(
                f"sphere-slice r=2 normal residual ({p[0]:g},{p[1]:g})",
                24.0,
                biharmonic.normal_residual(spec2, p),
                1e-6,
            )
        )
    return out


def _checks_example_cone():
    out = []
    for r in (1.0, 2.0):
        spec = cone(r)
        for u, v in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
            pg = PointGeometry(spec, (u, v))
            lam_ref = 1.0 / (2.0 * r * math.sqrt(1 + r * r) * u)
            lap_ref = 1.0 / (2.0 * r * (1 + r * r) ** 1.5 * u**3)
            a2_ref = 1.0 / (r * r * (1 + r * r) * u * u)
            tag = f"r={r:g} u={u:g}"
            out.append(
                Check(f"cone lambda {tag}", lam_ref, pg.lam, 1e-8 * abs(lam_ref))
            )
            out.append(
                Check(f"cone lapLambda {tag}", lap_ref, pg.lap_lam, 1e-8 * abs(lap_ref))
            )
            out.append(
                Check(f"cone |A|^2 {tag}", a2_ref, pg.normA2, 1e-8 * abs(a2_ref))
            )
    scan = biharmonic.parameter_scan(cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0))
    out.append(Check("cone scan root count", 1.0, float(len(scan.roots)), 0.0))
    if scan.roots:
        out.append(Check("cone scan root r", 1.0, scan.roots[0], 1e-6))
    return out


def _warp_scenes(spec):
    return [
        (src, warped.warped_scene(spec, src, params, WARP_INTERVAL))
        for src, params in WARPS
    ]


def _checks_tension_equivalence():
    out = []
    for label, spec in (("sphere-slice", sphere_slice(1.0)), ("cone", cone(1.0))):
        point = (0.3, -0.2) if label == "sphere-slice" else (1.0, 0.7)
        pg = PointGeometry(spec, point)
        for src, scene in _warp_scenes(spec):
            ms = oracle.warped_inclusion_map(scene)
            for t in T_SAMPLES:
                fp = oracle.tension_first_principles(ms, (t,) + point)
                closed = warped.inclusion_tension(scene, t, point, geometry=pg)
                diff = warped.hbar_norm(
                    scene, t, pg.X_val, warped.WVec(fp[0] - closed.t, fp[1:] - closed.n)
                )
                scale = 1.0 + warped.hbar_norm(scene, t, pg.X_val, closed)
                out.append(
                    Check(
                        f"tension oracle {label} f={src} t={t:g}",
                        0.0,
                        diff / scale,
                        1e-9,
                    )
                )
                out.append(
                    Check(
                        f"tension dt-orthogonality {label} f={src} t={t:g}",
                        0.0,
                        fp[0],
                        1e-12,
                    )
                )
    return out


def _checks_bitension_equivalence():
    out = []
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    pg = PointGeometry(spec, point)
    for src, scene in _warp_scenes(spec):
        ms = oracle.warped_inclusion_map(scene)
        for t in T_SAMPLES:
            fp = oracle.bitension_first_principles(ms, (t,) + point)
            closed = warped.inclusion_bitension(scene, t, point, geometry=pg)
            diff = warped.hbar_norm(
                scene,
                t,
                pg.X_val,
                warped.WVec(fp[0] - closed.vec.t, fp[1:] - closed.vec.n),
            )
            scale = 1.0 + warped.hbar_norm(scene, t, pg.X_val, closed.vec)
            out.append(
                Check(
                    f"bitension oracle sphere-slice f={src} t={t:g}",
                    0.0,
                    diff / scale,
                    1e-6,
                )
            )
    return out


def _checks_pairing():
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    pg = PointGeometry(spec, point)
    scene = warped.warped_scene(spec, "exp(t)", {}, WARP_INTERVAL)
    out = []
    for t, ref in ((0.0, 16.0), (0.5, 16.0 * math.exp(-1.0))):
        pr = warped.pairing(scene, t, point, geometry=pg)
        out.append(Check(f"pairing direct f=exp(t) t={t:g}", ref, pr.direct, 1e-6))
        out.append(
            Check(f"pairing closed form f=exp(t) t={t:g}", ref, pr.closed_form, 1e-6)
        )
    return out


def _checks_power_family():
    out = []
    cases = (
        ((1.0, 2.0, 2), (0.0, 1.5)),
        ((3.0, 1.0, 3), (0.0, 1.5)),
        ((-0.5, 4.0, 2), (0.0, 1.5)),
    )
    for (a, b, m), interval in cases:
        spec = sphere_slice(1.0, m=m)
        point = (0.3, -0.2, 0.1)[:m]
        pg = PointGeometry(spec, point)
        scene = warped.warped_scene(
            spec, "(a*t+b)^(1/m)", {"a": a, "b": b, "m": m}, interval
        )
        for t in np.linspace(interval[0] + 0.05, interval[1] - 0.05, 5):
            tag = f"a={a:g} b={b:g} m={m}, t={t:.2f}"
            out.append(
                Check(
                    f"power residual {tag}",
                    0.0,
                    warped.power_family_residual(
                        scene.warp, t, m, {"a": a, "b": b, "m": m}
                    ),
                    1e-12,
                )
            )
            pr = warped.pairing(scene, float(t), point, geometry=pg)
            out.append(Check(f"power pairing {tag}", 0.0, pr.direct, 1e-9))
    return out


def _checks_tangential_corollaries():
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    pg = PointGeometry(spec, point)
    out = []
    cosw = warped.warped_scene(spec, "2+cos(t)", {}, WARP_INTERVAL)
    b0 = warped.inclusion_bitension(cosw, 0.0, point, geometry=pg)
    out.append(
        Check("tangential part at f'(0)=0 (f=2+cos t)", 0.0, b0.tangential_norm, 1e-8)
    )
    b5 = warped.inclusion_bitension(cosw, 0.5, point, geometry=pg)
    out.append(
        Check(
            "tangential part nonzero at t=0.5 (f=2+cos t), floor 0.05",
            1.0,
            float(b5.tangential_norm >= 0.05),
            0.0,
        )
    )
    sq = warped.warped_scene(spec, "2+t^2", {}, WARP_INTERVAL)
    bs = warped.inclusion_bitension(sq, 0.0, point, geometry=pg)
    out.append(
        Check(
            "bitension nonzero at t=0 (f=2+t^2), floor 0.5",
            1.0,
            float(warped.hbar_norm(sq, 0.0, pg.X_val, bs.vec) >= 0.5),
            0.0,
        )
    )
    cb = warped.warped_scene(spec, "2+t^3", {}, WARP_INTERVAL)
    bc = warped.inclusion_bitension(cb, 0.0, point, geometry=pg)
    out.append(
        Check(
            "bitension vanishes at f'=f''=0 (f=2+t^3)",
            0.0,
            warped.hbar_norm(cb, 0.0, pg.X_val, bc.vec),
            1e-7,
        )
    )
    return out


def _checks_ricci():
    spec = sphere_slice(1.0)
    point = (0.3, -0.2)
    pg = PointGeometry(spec, point)
    x = np.array([1.0, 0.0]) / math.sqrt(pg.g_val[0, 0])
    out = []
    for src, scene in _warp_scenes(spec):
        for t in T_SAMPLES:
            rc = warped.ricci_warped_check(scene, t, point, x, geometry=pg)
            out.append(
                Check(
                    f"warped Ricci identity f={src} t={t:g}",
                    0.0,
                    rc.identity_residual,
                    1e-6,
                )
            )
            out.append(
                Check(
                    f"pairing via Ricci f={src} t={t:g}",
                    rc.pairing_closed_form,
                    rc.pairing_via_ricci,
                    1e-7 * (1.0 + abs(rc.pairing_closed_form)),
                )
            )
    scene = warped.warped_scene(spec, "exp(t)", {}, WARP_INTERVAL)
    rc = warped.ricci_warped_check(scene, 0.0, point, x, geometry=pg)
    out.append(Check("warped Ricci vanishes (f=exp t, t=0)", 0.0, rc.ric_warped, 1e-6))
    return out


def run_checks(name_filter=None):
    checks = []
    checks.extend(_checks_example_sphere_slice())
    checks.extend(_checks_example_cone())
    checks.extend(_checks_tension_equivalence())
    checks.extend(_checks_bitension_equivalence())
    checks.extend(_checks_pairing())
    checks.extend(_checks_power_family())
    checks.extend(_checks_tangential_corollaries())
    checks.extend(_checks_ricci())
    if name_filter:
        checks = [c for c in checks if name_filter in c.name]
    return checks
