"""The benchmark workloads: scenes, seeded request lists, one request
through warpgeo's public API, and the check on its output.

Every call into warpgeo looks the function up on its module at call time
(``warpgeo.classify``, not a name bound at import), so the traced run sees
the tracer's wrappers.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import numpy as np

import warpgeo
import warpgeo.verify

CLASSIFY_TOL = 1e-7
PAIRING_RTOL = 1e-6
POWER_RESIDUAL_TOL = 1e-12
VERIFY_CHECKS = 126


def _cone(r):
    return {
        "ambient": {"model": "euclidean", "dim": 3},
        "immersion": {
            "variables": ["u", "v"],
            "components": ["r*u*cos(v)", "r*u*sin(v)", "u"],
            "params": {"r": r},
        },
    }


def _slice(model, m, r, warp=None):
    """The height-r slice {x_(m+1) = r} of the (m+1)-dimensional space
    form in its conformal chart."""
    variables = ["u", "v", "w"][:m]
    data = {
        "ambient": {"model": model, "dim": m + 1},
        "immersion": {
            "variables": variables,
            "components": variables + ["r"],
            "params": {"r": r},
        },
    }
    if warp is not None:
        data["warp"] = warp
    return data


def _balanced(rng, mix, n):
    """n labels in the proportions of `mix` (n is a multiple of its
    length), in a seeded order: the seed moves offsets and order, never
    the mix, so request cost does not depend on the seed."""
    out = [mix[i % len(mix)] for i in range(n)]
    rng.shuffle(out)
    return out


class _Seeded:
    """Request lists for workloads with a scene mix.  The request count
    is `seconds` over the nominal request time, rounded to whole rounds of
    the mix; it never depends on measured speed, so every run at one
    --seconds does identical work."""

    def requests(self, rng, seconds):
        mix = list(self.mix)
        rounds = max(1, round(seconds / self.request_s / len(mix)))
        return [self._request(rng, label) for label in _balanced(rng, mix, rounds * len(mix))]

    def warmup(self, seed):
        """A request outside the measured list, from its own stream."""
        return self._request(np.random.default_rng([seed, 1]), self.mix[0])


class Grid(_Seeded):
    """classify() over a fresh 16-point grid per request."""

    name = "grid"
    unit = "grid point"
    request_s = 0.065  # nominal seconds per request; sizes the request count
    uses_seed = True

    # label -> (scene, known normally_biharmonic value, grid kind).
    # Exactly the r=1 cone and the r=1 slices are normally biharmonic.
    # AXES gives each grid kind's axes before the seeded offset.
    SCENES = {
        "cone r=0.5": (_cone(0.5), False, "cone"),
        "cone r=1": (_cone(1.0), True, "cone"),
        "cone r=1.5": (_cone(1.5), False, "cone"),
        "cone r=2": (_cone(2.0), False, "cone"),
        "S3 slice r=1": (_slice("sphere", 2, 1.0), True, "slice2"),
        "S3 slice r=2": (_slice("sphere", 2, 2.0), False, "slice2"),
        "H3 slice r=0.5": (_slice("hyperbolic", 2, 0.5), False, "ball2"),
        "S4 slice r=1": (_slice("sphere", 3, 1.0), True, "slice3"),
    }
    AXES = {
        "cone": ((0.6, 1.0, 1.4, 1.8), (0.3, 0.9, 1.5, 2.1)),
        "slice2": ((-0.45, -0.15, 0.15, 0.45),) * 2,
        "ball2": ((-0.3, -0.1, 0.1, 0.3),) * 2,
        "slice3": ((-0.45, -0.15, 0.15, 0.45), (-0.2, 0.2), (-0.2, 0.2)),
    }
    OFFSET = {"cone": 0.1, "slice2": 0.1, "ball2": 0.05, "slice3": 0.1}
    mix = tuple(SCENES)

    def build(self):
        return {
            label: warpgeo.scene_from_dict(data).immersion
            for label, (data, _, _) in self.SCENES.items()
        }

    def _request(self, rng, label):
        kind = self.SCENES[label][2]
        axes = [
            np.asarray(axis) + rng.uniform(-self.OFFSET[kind], self.OFFSET[kind])
            for axis in self.AXES[kind]
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = tuple(zip(*(c.ravel().tolist() for c in mesh)))
        return label, points


    def run(self, built, request):
        label, points = request
        return warpgeo.classify(built[label], points, CLASSIFY_TOL)

    def check(self, request, out):
        return out.normally_biharmonic == self.SCENES[request[0]][1]

    def units(self, request, out):
        return len(request[1])


class Warp(_Seeded):
    """warped_report() over 5 consecutive t values at one base point."""

    name = "warp"
    unit = "t-sample (report)"
    request_s = 0.1
    uses_seed = True
    SWEEP = 5
    DT = 0.05
    POINT_BOX = 0.4

    WARPS = {
        "exp(t)": {"expr": "exp(t)", "interval": [-0.5, 1.0], "params": {}},
        "sqrt(t+2)": {"expr": "sqrt(t+2)", "interval": [-0.5, 1.0], "params": {}},
        "2+cos(t)": {"expr": "2+cos(t)", "interval": [-0.5, 1.0], "params": {}},
    }
    # (a t + b)^(1/m), with m the base dimension
    POWER = {2: {"a": 1.0, "b": 2.0, "m": 2}, 3: {"a": 3.0, "b": 1.0, "m": 3}}

    def __init__(self):
        self.scenes = self._scenes()
        # The m=2 base is sent 3 times as often as the m=3 base, which
        # costs about 3 times as much: each base takes about half the time,
        # and the median request lies inside the m=2 group, not on the
        # boundary between the two.
        self.mix = tuple(
            label
            for label in self.scenes
            for _ in range(3 if label.startswith("S3") else 1)
        )

    def _scenes(self):
        out = {}
        for m in (2, 3):
            warps = dict(self.WARPS)
            warps["power"] = {
                "expr": "(a*t+b)^(1/m)",
                "interval": [0.0, 1.5],
                "params": self.POWER[m],
            }
            for wname, warp in warps.items():
                out[f"S{m + 1} slice r=1, f={wname}"] = (
                    _slice("sphere", m, 1.0, warp),
                    wname == "power",
                )
        return out

    def build(self):
        return {
            label: warpgeo.scene_from_dict(data).warped
            for label, (data, _) in self.scenes.items()
        }

    def _request(self, rng, label):
        data = self.scenes[label][0]
        lo, hi = data["warp"]["interval"]
        span = (self.SWEEP - 1) * self.DT
        t0 = rng.uniform(lo + 0.05, hi - 0.05 - span)
        ts = tuple(t0 + k * self.DT for k in range(self.SWEEP))
        m = len(data["immersion"]["variables"])
        point = tuple(rng.uniform(-self.POINT_BOX, self.POINT_BOX, m).tolist())
        return label, ts, point

    def run(self, built, request):
        label, ts, point = request
        scene = built[label]
        return [warpgeo.warped_report(scene, t, point) for t in ts]

    def check(self, request, out):
        power = self.scenes[request[0]][1]
        for rep in out:
            closed = rep.pairing_closed_form
            if not rep.pairing_closed_form_applicable:
                return False
            if not abs(rep.pairing - closed) <= PAIRING_RTOL * (1.0 + abs(closed)):
                return False
            if power and not abs(rep.power_residual) <= POWER_RESIDUAL_TOL:
                return False
        return len(out) == self.SWEEP

    def units(self, request, out):
        return len(out)


class Verify:
    """One full verify.run_checks() pass; the suite is fixed, so the
    seed is not used."""

    name = "verify"
    unit = "check"
    request_s = 1.25
    uses_seed = False

    def build(self):
        return None

    def requests(self, rng, seconds):
        return [None] * max(1, round(seconds / self.request_s))

    def warmup(self, seed):
        return None

    def run(self, built, request):
        return warpgeo.verify.run_checks()

    def check(self, request, out):
        return len(out) == VERIFY_CHECKS and all(bool(c.passed) for c in out)

    def units(self, request, out):
        return len(out)


WORKLOADS = {w.name: w for w in (Grid(), Warp(), Verify())}
