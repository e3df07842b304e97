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
from . import jet as J
from .ambient import AmbientChart
from .errors import range_policy
from .expr import parse
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
# the cone's closed-form checks' points, then its warped checks' point
CONE_POINTS = ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 0.7))

WARPS = (("exp(t)", {}), ("sqrt(t+2)", {}), ("2+cos(t)", {}))
WARP_INTERVAL = (-0.5, 1.0)
T_SAMPLES = (0.0, 0.3)
WARP_POINT = (0.3, -0.2)  # the warped checks' point on the r=1 slice


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


def _rows(points, radii):
    """(r, p) for every one of `points` at each of `radii`: _family's rows."""
    return [(r, p) for r in radii for p in points]


def _family(make, points, radii, extra=()):
    """One batched PointGeometry of the specs make(r), r in `radii`, each
    at every one of `points`, then of make(r) at p for each (r, p) of
    `extra`: r enters as a batch param, as in biharmonic.parameter_scan,
    and row j * len(points) + i is point i at radii[j], so row i is point i
    at radii[0]."""
    rs, ps = zip(*_rows(points, radii), *extra)
    return PointGeometry(make(np.array(rs)), np.array(ps).T)


def _checks_example_sphere_slice():
    """The slice checks, and the family's geometry at WARP_POINT on the
    r = 1 slice, the warped checks' base point."""
    out = []
    k = len(SLICE_POINTS)
    pg = _family(sphere_slice, SLICE_POINTS, (1.0, 2.0))
    residual = biharmonic.normal_residual(pg)
    for i, p in enumerate(SLICE_POINTS):
        tag = f"({p[0]:g},{p[1]:g})"
        out.append(Check(f"sphere-slice r=1 lambda {tag}", 1.0, float(pg.lam[i]), 1e-9))
        out.append(Check(f"sphere-slice r=1 |A|^2 {tag}", 2.0, pg.normA2[i], 1e-8))
        out.append(Check(f"sphere-slice r=1 lapLambda {tag}", 0.0, pg.lap_lam[i], 1e-7))
        out.append(Check(f"sphere-slice r=1 normal residual {tag}", 0.0, residual[i], 1e-7))
    for i, p in enumerate(SLICE_POINTS):
        out.append(
            Check(
                f"sphere-slice r=2 normal residual ({p[0]:g},{p[1]:g})",
                24.0,
                residual[k + i],
                1e-6,
            )
        )
    return out, pg.row(SLICE_POINTS.index(WARP_POINT))


def _checks_example_cone():
    """The cone checks and its scan, and the family's geometry at the last
    of CONE_POINTS on the r = 1 cone, whose spec the scan varies.  The
    scan's samples are rows of the family build: its grid of r at the probe
    point, less the rows the closed-form checks hold already."""
    out = []
    radii = (1.0, 2.0)
    probe = (1.0, 1.0)
    rows = _rows(CONE_POINTS, radii)
    grid = biharmonic.scan_grid(0.5, 2.0, 31)
    extra = [(r, probe) for r in grid if (r, probe) not in rows]
    pg = _family(cone, CONE_POINTS, radii, extra)
    warp_pg = pg.row(len(CONE_POINTS) - 1)
    for j, r in enumerate(radii):
        for i, (u, _) in enumerate(CONE_POINTS[:-1]):
            row = j * len(CONE_POINTS) + i
            lam_ref = 1.0 / (2.0 * r * math.sqrt(1 + r * r) * u)
            lap_ref = 1.0 / (2.0 * r * (1 + r * r) ** 1.5 * u**3)
            a2_ref = 1.0 / (r * r * (1 + r * r) * u * u)
            tag = f"r={r:g} u={u:g}"
            out.append(
                Check(f"cone lambda {tag}", lam_ref, float(pg.lam[row]), 1e-8 * abs(lam_ref))
            )
            out.append(
                Check(f"cone lapLambda {tag}", lap_ref, pg.lap_lam[row], 1e-8 * abs(lap_ref))
            )
            out.append(
                Check(f"cone |A|^2 {tag}", a2_ref, pg.normA2[row], 1e-8 * abs(a2_ref))
            )
    residual = biharmonic.normal_residual(pg)
    index = {row: i for i, row in enumerate(rows + extra)}
    samples = [(r, residual[index[r, probe]]) for r in grid]
    scan = biharmonic.bisect_samples(warp_pg.spec, "r", probe, samples)
    out.append(Check("cone scan root count", 1.0, float(len(scan.roots)), 0.0))
    if scan.roots:
        out.append(Check("cone scan root r", 1.0, scan.roots[0], 1e-6))
    return out, warp_pg


def _warp_scenes(spec):
    """{warp source: WarpedScene over `spec`} for each of WARPS."""
    return {
        src: warped.warped_scene(spec, src, params, WARP_INTERVAL)
        for src, params in WARPS
    }


@dataclass(frozen=True)
class _WarpFamily:
    """Warped scenes over one immersion as one scene for
    oracle.warped_inclusion_map, which reads `immersion` and `warp_jet`:
    the t coordinate carries a leading axis over the scenes, and
    warp_jet(t) evaluates scene i on row i of t and stacks the results on
    that axis.  A map of the family evaluated at t of shape (len(scenes),
    k) gives, in row i, the oracle of scene i's map at t[i] bit for bit."""

    immersion: object
    scenes: tuple

    def warp_jet(self, t):
        rows = [
            scene.warp_jet(J.Jet(t.n_vars, t.order, t.coeffs[:, i]))
            for i, scene in enumerate(self.scenes)
        ]
        return J.Jet(t.n_vars, t.order, J.stack(rows))


def _family_map(scenes, immersion, point):
    """The warped inclusion of `immersion` under the warps of `scenes` and
    its point (t, *point), with T_SAMPLES as each scene's row of t.  A
    scene's warp reads no immersion, so scenes loaded over one immersion
    serve any other."""
    scenes = tuple(scenes.values())
    ts = np.tile(T_SAMPLES, (len(scenes), 1))
    family = _WarpFamily(immersion, scenes)
    return oracle.warped_inclusion_map(family), (ts,) + point


def _oracle_records(scenes, immersion, point):
    """{warp source: oracle.first_principles of the warped inclusion of
    `immersion` at (t, point) for t over T_SAMPLES}, all one batch: row i
    of each value array is T_SAMPLES[i]."""
    rec = oracle.first_principles(*_family_map(scenes, immersion, point))
    return {
        src: oracle.FirstPrinciples(rec.tension[i], rec.bitension[i], rec.riemann[i])
        for i, src in enumerate(scenes)
    }


def _oracle_gap(base, w, oracle_vec, closed_vec):
    """|oracle - closed|_h / (1 + |closed|_h) per t: the relative gap
    between an oracle vector on I x N, in chart components, and its closed
    form, in frame components."""
    diff = warped.hbar_norm(warped.to_frame(base, w, oracle_vec) - closed_vec)
    return diff / (1.0 + warped.hbar_norm(closed_vec))


def _checks_tension_equivalence(base, cone_pg, scenes, warps, records):
    """The tension checks on the slice and on the cone at `cone_pg`, both
    under the slice's scenes and their warps over T_SAMPLES."""
    out = []
    taus = oracle.tension_first_principles(*_family_map(scenes, cone_pg.spec, cone_pg.point))
    cone_taus = dict(zip(scenes, taus))
    slice_taus = {src: rec.tension for src, rec in records.items()}
    families = (
        ("sphere-slice", base, slice_taus),
        ("cone", warped.base_point_of(cone_pg), cone_taus),
    )
    for label, bp, taus in families:
        for src, w in warps.items():
            fp = taus[src]
            gap = _oracle_gap(bp, w, fp, warped.inclusion_tension(bp, w))
            for i, t in enumerate(T_SAMPLES):
                out.append(
                    Check(
                        f"tension oracle {label} f={src} t={t:g}",
                        0.0,
                        gap[i],
                        1e-9,
                    )
                )
                out.append(
                    Check(
                        f"tension dt-orthogonality {label} f={src} t={t:g}",
                        0.0,
                        fp[i, 0],
                        1e-12,
                    )
                )
    return out


def _checks_bitension_equivalence(base, warps, records):
    out = []
    for src, w in warps.items():
        closed = warped.inclusion_bitension(base, w).vec
        gap = _oracle_gap(base, w, records[src].bitension, closed)
        for i, t in enumerate(T_SAMPLES):
            out.append(
                Check(
                    f"bitension oracle sphere-slice f={src} t={t:g}",
                    0.0,
                    gap[i],
                    1e-6,
                )
            )
    return out


def _checks_pairing(base, scene):
    out = []
    ts, refs = (0.0, 0.5), (16.0, 16.0 * math.exp(-1.0))
    pr = warped.pairing(base, scene.warp_at(ts))
    for i, (t, ref) in enumerate(zip(ts, refs)):
        out.append(Check(f"pairing direct f=exp(t) t={t:g}", ref, pr.pairing[i], 1e-6))
        out.append(
            Check(
                f"pairing closed form f=exp(t) t={t:g}", ref, pr.pairing_closed_form[i], 1e-6
            )
        )
    return out


def _checks_power_family(base):
    out = []
    cases = (
        ((1.0, 2.0, 2), (0.0, 1.5)),
        ((3.0, 1.0, 3), (0.0, 1.5)),
        ((-0.5, 4.0, 2), (0.0, 1.5)),
    )
    # base is the r = 1 slice's at (0.3, -0.2)
    bases = {2: base, 3: warped.base_point(sphere_slice(1.0, m=3), (0.3, -0.2, 0.1))}
    power = parse("(a*t+b)^(1/m)")  # one parse serves the three cases
    for (a, b, m), interval in cases:
        params = {"a": a, "b": b, "m": m}
        scene = warped.warped_scene(bases[m].geometry.spec, power, params, interval)
        ts = np.linspace(interval[0] + 0.05, interval[1] - 0.05, 5)
        pr = warped.pairing(bases[m], scene.warp_at(ts))
        for i, t in enumerate(ts):
            tag = f"a={a:g} b={b:g} m={m}, t={t:.2f}"
            out.append(
                Check(
                    f"power residual {tag}",
                    0.0,
                    pr.power_residual[i],
                    1e-12,
                )
            )
            out.append(Check(f"power pairing {tag}", 0.0, pr.pairing[i], 1e-9))
    return out


def _checks_tangential_corollaries(base, cosw):
    spec = cosw.immersion
    out = []
    b = warped.inclusion_bitension(base, cosw.warp_at((0.0, 0.5)))
    out.append(
        Check("tangential part at f'(0)=0 (f=2+cos t)", 0.0, b.tangential_norm[0], 1e-8)
    )
    out.append(
        Check(
            "tangential part nonzero at t=0.5 (f=2+cos t), floor 0.05",
            1.0,
            float(b.tangential_norm[1] >= 0.05),
            0.0,
        )
    )

    def norm_at_0(src):  # |tau_2(phi)| at t = 0 under the warp src
        w = warped.warped_scene(spec, src, {}, WARP_INTERVAL).warp_at(0.0)
        return warped.hbar_norm(warped.inclusion_bitension(base, w).vec)

    nonzero = float(norm_at_0("2+t^2") >= 0.5)
    out.append(Check("bitension nonzero at t=0 (f=2+t^2), floor 0.5", 1.0, nonzero, 0.0))
    out.append(Check("bitension vanishes at f'=f''=0 (f=2+t^3)", 0.0, norm_at_0("2+t^3"), 1e-7))
    return out


def _checks_ricci(base, warps, records):
    g_val = base.geometry.g_val
    x = np.array([1.0, 0.0]) / math.sqrt(g_val[0, 0])
    out = []
    checks = {}  # one check per warp, over T_SAMPLES
    for src, w in warps.items():
        rc = checks[src] = warped.ricci_warped_check(base, w, x, records[src].riemann)
        for i, t in enumerate(T_SAMPLES):
            out.append(
                Check(
                    f"warped Ricci identity f={src} t={t:g}",
                    0.0,
                    rc.identity_residual[i],
                    1e-6,
                )
            )
            out.append(
                Check(
                    f"pairing via Ricci f={src} t={t:g}",
                    rc.pairing_closed_form[i],
                    rc.pairing_via_ricci[i],
                    1e-7 * (1.0 + abs(rc.pairing_closed_form[i])),
                )
            )
    flat = checks["exp(t)"].ric_warped[T_SAMPLES.index(0.0)]
    out.append(Check("warped Ricci vanishes (f=exp t, t=0)", 0.0, flat, 1e-6))
    return out


def run_checks(name_filter=None):
    with range_policy():
        # the closed-form families hold the warped checks' base points as
        # rows; the warped checks share the r = 1 slice's BasePoint, its
        # scenes (the cone's checks read them too), each scene's warp over
        # T_SAMPLES and one oracle record per scene; the records come from
        # one oracle pipeline, the scenes a batch axis of t and T_SAMPLES the
        # other
        checks, slice_pg = _checks_example_sphere_slice()
        cone_checks, cone_pg = _checks_example_cone()
        checks.extend(cone_checks)
        base = warped.base_point_of(slice_pg)
        scenes = _warp_scenes(slice_pg.spec)
        warps = {src: scene.warp_at(T_SAMPLES) for src, scene in scenes.items()}
        records = _oracle_records(scenes, slice_pg.spec, WARP_POINT)
        checks.extend(_checks_tension_equivalence(base, cone_pg, scenes, warps, records))
        checks.extend(_checks_bitension_equivalence(base, warps, records))
        checks.extend(_checks_pairing(base, scenes["exp(t)"]))
        checks.extend(_checks_power_family(base))
        checks.extend(_checks_tangential_corollaries(base, scenes["2+cos(t)"]))
        checks.extend(_checks_ricci(base, warps, records))
        if name_filter:
            checks = [c for c in checks if name_filter in c.name]
        return checks
