import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from warpgeo import biharmonic as bh
from warpgeo import oracle, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.errors import EvalDomainError, UsageError
from warpgeo.immersion import PointGeometry, immersion


def _graph(height, params):
    """The graph (u, v, height) in Euclidean 3-space."""
    return immersion(("u", "v"), ("u", "v", height), params, AmbientChart("euclidean", 3))


POLE_GRAPH = _graph("u*u/(r-1)+v*v", {"r": 0.5})
# (spec, param, lo, hi, samples, probe point) of the scans recorded in
# tests/data/scan_golden.json, which holds repr(parameter_scan(...).to_dict())
# for each, as the one-point-at-a-time scan gave it
SCANS = {
    "cone r 0.5:2/31": (verify.cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0)),
    "slice r 0.5:2/31": (verify.sphere_slice(1.0), "r", 0.5, 2.0, 31, (0.3, -0.2)),
    "cone r 1.5:2/11": (verify.cone(1.0), "r", 1.5, 2.0, 11, (1.0, 1.0)),
    "cone r -1:1/3": (verify.cone(1.0), "r", -1.0, 1.0, 3, (1.0, 1.0)),
    # one degenerate sample, r = 0, in a batch of 101
    "cone r -1:1/101": (verify.cone(1.0), "r", -1.0, 1.0, 101, (1.0, 1.0)),
    "pole r 0.5:1.5/30": (POLE_GRAPH, "r", 0.5, 1.5, 30, (0.3, 0.2)),
    "pole r 0.45:1.6/20": (POLE_GRAPH, "r", 0.45, 1.6, 20, (0.3, 0.2)),
    "cone r 0.5:2/33": (verify.cone(1.0), "r", 0.5, 2.0, 33, (1.0, 0.7)),
    "cone r 0.5:1e22/2": (verify.cone(1.0), "r", 0.5, 1e22, 2, (1.0, math.pi / 2)),
    # a param in an exponent: each point of a batch takes its own power rule
    "exponent p 1.5:3/16": (_graph("u^p+v", {"p": 2.0}), "p", 1.5, 3.0, 16, (0.5, 0.3)),
}
SCAN_GOLDEN = Path(__file__).parent / "data" / "scan_golden.json"


class TestResiduals:
    def test_cone_residual_closed_form(self, cone):
        # flat ambient: residual = m [ -lapLambda + lambda |A|^2 ] with the
        # cone's closed forms
        for r in (0.8, 1.0, 1.3):
            spec = cone(r)
            for u in (0.5, 1.0, 2.0):
                lam = 1.0 / (2.0 * r * math.sqrt(1 + r * r) * u)
                lap = 1.0 / (2.0 * r * (1 + r * r) ** 1.5 * u**3)
                a2 = 1.0 / (r * r * (1 + r * r) * u * u)
                ref = 2.0 * (-lap + lam * a2)
                got = bh.normal_residual(PointGeometry(spec, (u, 1.0)))
                assert got == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))

    def test_cone_r1_normally_biharmonic(self, cone):
        assert bh.normal_residual(PointGeometry(cone(1.0), (1.0, 0.7))) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_slice_r2_residual(self, sphere_slice):
        # m [ lambda |A|^2 - lambda Ric(eta,eta) ] = 2 [2*8 - 2*2] = 24
        pg = PointGeometry(sphere_slice(2.0), (0.3, -0.2))
        assert bh.normal_residual(pg) == pytest.approx(24.0, abs=1e-6)

    def test_cone_tangential_residual(self, cone):
        # frozen fixture: |T|_g = 1/(2 sqrt 2) at r = 1, u = 1
        _, norm = bh.tangential_residual(PointGeometry(cone(1.0), (1.0, 0.7)))
        assert norm == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-9)

    def test_slice_tangential_vanishes(self, sphere_slice):
        t_amb, norm = bh.tangential_residual(PointGeometry(sphere_slice(1.0), (0.3, -0.2)))
        assert norm == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(t_amb, 0.0, atol=1e-8)

    def test_tangential_is_tangent(self, cone):
        pg = PointGeometry(cone(1.3), (1.0, 0.7))
        t_amb, _ = bh.tangential_residual(pg)
        assert pg.e2_val * np.dot(t_amb, pg.eta_val) == pytest.approx(0.0, abs=1e-9)


class TestClassify:
    def test_plane_is_harmonic(self, plane):
        rec = bh.classify(plane, [(0.0, 0.0), (1.0, 2.0)], 1e-7)
        assert rec.harmonic
        assert rec.biharmonic
        assert rec.normally_biharmonic and rec.tangentially_biharmonic

    def test_slice_r1_biharmonic(self, sphere_slice):
        rec = bh.classify(sphere_slice(1.0), [(0.0, 0.0), (0.3, -0.2)], 1e-7)
        assert rec.biharmonic and not rec.harmonic

    def test_cone_r1_flags(self, cone):
        rec = bh.classify(cone(1.0), [(1.0, 0.7)], 1e-7)
        assert rec.normally_biharmonic
        assert not rec.tangentially_biharmonic
        assert not rec.biharmonic
        assert not rec.harmonic

    def test_flags_monotone_in_tol(self, cone):
        points = [(1.0, 0.7), (0.5, 1.0)]
        flags = ("harmonic", "normally_biharmonic", "tangentially_biharmonic", "biharmonic")
        prev = None
        for tol in (1e-10, 1e-7, 1e-3, 1e2):
            rec = bh.classify(cone(1.0), points, tol)
            cur = {k: getattr(rec, k) for k in flags}
            if prev is not None:
                for k in flags:
                    assert cur[k] >= prev[k]  # loosening never clears a flag
            prev = cur

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, cone, tol):
        # the biharmonic r = 1 cone: a negative tol would clear its flags
        with pytest.raises(UsageError, match="not a finite number >= 0"):
            bh.classify(cone(1.0), [(1.0, 0.7)], tol)

    def test_empty_points(self, cone):
        with pytest.raises(UsageError):
            bh.classify(cone(1.0), [], 1e-7)

    def test_point_of_the_wrong_length(self, cone):
        with pytest.raises(UsageError, match="^point has 3 coords, expected 2$"):
            bh.classify(cone(1.0), [(1.0, 0.7), (1.0, 0.7, 0.3)], 1e-7)

    @pytest.mark.parametrize("spec, point, mean_curvature", [
        (immersion(("u", "v"), ("u", "v", "sqrt(R^2-u*u-v*v)"), {"R": 3e-4},
                   AmbientChart("euclidean", 3)), (0.0, 0.0), 1.0 / 3e-4),
        # |H| = |lambda| = 1 / (2 r sqrt(1 + r^2) u)
        (verify.cone(2.0), (1e-4, 0.7), 1.0 / (4.0 * math.sqrt(5.0) * 1e-4)),
    ], ids=["sphere of radius 3e-4", "cone r = 2 near its apex"])
    def test_high_curvature_is_not_harmonic(self, spec, point, mean_curvature):
        # |H| <= tol (1 + |A|) is relative to |A| >= sqrt(m) |H|: compared
        # with the residual scale m (1 + |lambda|)(1 + |A|^2) ~ |H|^3 any
        # |H| past about 1e3 passed at tol = 1e-7, and with it biharmonic
        rec = bh.classify(spec, [point], 1e-7)
        assert rec.max_mean_curvature == pytest.approx(mean_curvature, rel=1e-12)
        assert rec.max_normal > 1e-7 * rec.scale
        assert not rec.harmonic and not rec.normally_biharmonic and not rec.biharmonic

    def test_to_dict(self, cone):
        d = bh.classify(cone(1.0), [(1.0, 0.7)], 1e-7).to_dict()
        assert d["points"] == [[1.0, 0.7]]
        assert set(d) >= {"tol", "scale", "maxNormalResidual", "biharmonic"}


def _clifford_torus(a):
    """S^1(a) x S^2(sqrt(1-a^2)) in S^4, in the stereographic chart, with
    chart variables (p, q, s): an m = 3 hypersurface, proper biharmonic at
    a = 1/sqrt 2 and minimal at a = 1/sqrt 3."""
    c, d = "sqrt(1-a^2)", "(1+sqrt(1-a^2)*sin(q))"
    components = (f"a*cos(p)/{d}", f"a*sin(p)/{d}",
                  f"{c}*cos(q)*cos(s)/{d}", f"{c}*cos(q)*sin(s)/{d}")
    return immersion(("p", "q", "s"), components, {"a": a}, AmbientChart("sphere", 4))


TORUS_POINTS = [(0.3, 0.2, 0.1), (1.0, -0.4, 0.7)]
TORUS_RADII = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0), 0.6]


class TestCliffordTorus:
    def test_classify(self):
        proper = bh.classify(_clifford_torus(1.0 / math.sqrt(2.0)), TORUS_POINTS, 1e-7)
        assert proper.biharmonic and not proper.harmonic
        assert proper.max_mean_curvature == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert bh.classify(_clifford_torus(1.0 / math.sqrt(3.0)), TORUS_POINTS, 1e-7).harmonic
        # at a = 0.6 the principal curvatures are 4/3 and -3/4 (twice):
        # lambda = -1/18 and |A|^2 - 3 = -7/72, so m lambda (|A|^2 - m) = 7/432
        off = bh.classify(_clifford_torus(0.6), TORUS_POINTS, 1e-7)
        assert not off.normally_biharmonic
        assert off.max_normal == pytest.approx(7.0 / 432.0, rel=1e-9)

    @pytest.mark.parametrize("a", TORUS_RADII)
    def test_submanifold_bitension_matches_the_oracle(self, a):
        # measured at most 1.5e-15 of 1 + |oracle|
        spec = _clifford_torus(a)
        for point in TORUS_POINTS:
            closed = oracle.submanifold_bitension(PointGeometry(spec, point))
            ref = oracle.first_principles(oracle.inclusion_map(spec), point).bitension
            assert np.linalg.norm(closed - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    @pytest.mark.parametrize("a", TORUS_RADII)
    def test_warped_bitension_matches_the_oracle(self, a):
        # measured at most 2.4e-16
        scene = warped.warped_scene(_clifford_torus(a), "2+cos(t)", {}, (-0.5, 1.0))
        for point in TORUS_POINTS:
            rep = warped.warped_report(scene, 0.3, point)
            fp = oracle.first_principles(oracle.warped_inclusion_map(scene), (0.3,) + point)
            assert verify._oracle_gap(rep.base, rep.warp, fp.bitension, rep.bitension.vec) <= 1e-13


class TestScan:
    def test_cone_root(self, cone):
        res = bh.parameter_scan(cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0))
        assert len(res.roots) == 1
        assert res.roots[0] == pytest.approx(1.0, abs=1e-6)

    def test_slice_root(self, sphere_slice):
        res = bh.parameter_scan(sphere_slice(1.0), "r", 0.5, 2.0, 31, (0.3, -0.2))
        assert len(res.roots) == 1
        assert res.roots[0] == pytest.approx(1.0, abs=1e-6)

    def test_no_root_interval(self, cone):
        res = bh.parameter_scan(cone(1.0), "r", 1.5, 2.0, 11, (1.0, 1.0))
        assert res.roots == ()

    def test_failures_skipped(self, cone):
        # r = 0 degenerates the cone; the sample is reported and skipped
        res = bh.parameter_scan(cone(1.0), "r", -1.0, 1.0, 3, (1.0, 1.0))
        assert len(res.failures) == 1
        assert res.failures[0][0] == 0.0
        assert any(r is None for _, r in res.samples)

    @pytest.mark.parametrize(
        "lo, hi, samples, message",
        [(0.5, 1.5, 30, "division by jet"), (0.45, 1.6, 20, "pole")],
        ids=["bisection raises", "bisection closes on the pole"],
    )
    def test_pole_is_a_failure_not_a_root(self, lo, hi, samples, message):
        # the residual changes sign across the pole r = 1 of the graph
        spec = immersion(
            ("u", "v"), ("u", "v", "u*u/(r-1)+v*v"), {"r": 0.5}, AmbientChart("euclidean", 3)
        )
        res = bh.parameter_scan(spec, "r", lo, hi, samples, (0.3, 0.2))
        assert res.roots == ()
        assert len(res.failures) == 1
        value, text = res.failures[0]
        assert value == pytest.approx(1.0, abs=1e-9)
        assert message in text

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_scan_matches_golden(self, name):
        res = bh.parameter_scan(*SCANS[name])
        assert repr(res.to_dict()) == json.loads(SCAN_GOLDEN.read_text())[name]

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_scan_equals_the_one_point_at_a_time_scan(self, monkeypatch, name):
        res = bh.parameter_scan(*SCANS[name])
        _one_at_a_time(monkeypatch)
        ref = bh.parameter_scan(*SCANS[name])
        assert res == ref
        assert repr(res.to_dict()) == repr(ref.to_dict())

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_scan_takes_no_more_rounds_than_the_tree_alone(self, monkeypatch, name):
        # (build attempts, bisection rounds) with the look-ahead tree alone
        # in every round, as a NaN secant leaves it
        tree_alone = {
            "cone r -1:1/101": (19, 6),
            "cone r -1:1/3": (5, 0),
            "cone r 0.5:1e22/2": (23, 22),
            "cone r 0.5:2/31": (7, 6),
            "cone r 0.5:2/33": (7, 6),
            "cone r 1.5:2/11": (1, 0),
            "exponent p 1.5:3/16": (7, 6),
            "pole r 0.45:1.6/20": (7, 6),
            "pole r 0.5:1.5/30": (6, 1),
            "slice r 0.5:2/31": (7, 6),
        }
        # a round whose batch raises is halved by `each`: a wider first
        # round can take more attempts
        wider_failing = {"pole r 0.5:1.5/30": 8}
        counts = {"attempts": 0, "batches": 0}
        geometry, batched = bh.PointGeometry, bh.each

        def attempt(*args):
            counts["attempts"] += 1
            return geometry(*args)

        def batch(*args):
            counts["batches"] += 1  # the samples, then one per round
            return batched(*args)

        def scan():
            counts.update(attempts=0, batches=0)
            bh.parameter_scan(*SCANS[name])
            return counts["attempts"], counts["batches"] - 1

        monkeypatch.setattr(bh, "PointGeometry", attempt)
        monkeypatch.setattr(bh, "each", batch)
        attempts, rounds = scan()
        assert rounds <= tree_alone[name][1]
        assert attempts <= wider_failing.get(name, tree_alone[name][0])
        if name == "cone r 0.5:2/31":  # verify's scan: the samples and one round
            assert attempts == 2
        monkeypatch.setattr(bh, "_secant", lambda *held: math.nan)
        assert scan() == tree_alone[name]

    def test_bad_arguments(self, cone):
        with pytest.raises(UsageError):
            bh.parameter_scan(cone(1.0), "r", 2.0, 0.5, 11, (1.0, 1.0))
        with pytest.raises(UsageError):  # hi - lo beyond the float range
            bh.parameter_scan(cone(1.0), "r", -1e308, 1e308, 11, (1.0, 1.0))
        with pytest.raises(UsageError):
            bh.parameter_scan(cone(1.0), "r", 0.5, 2.0, 1, (1.0, 1.0))
        with pytest.raises(UsageError):
            bh.parameter_scan(cone(1.0), "q", 0.5, 2.0, 11, (1.0, 1.0))

    def test_non_hypersurface_is_refused_before_any_build(self, monkeypatch):
        # every sample would fail alike; none is built
        spec = immersion(("u", "v"), ("u", "v", "a", "0.2"), {"a": 0.1}, AmbientChart("sphere", 4))
        monkeypatch.setattr(bh, "PointGeometry", None)
        with pytest.raises(UsageError, match="hypersurface-only"):
            bh.parameter_scan(spec, "a", 0.0, 1.0, 3, (0.1, 0.1))


    def test_verify_samples_are_the_scans(self, monkeypatch):
        # verify reads its cone scan's samples from the cone family build:
        # each residual is a row of a batch, so it equals the scan's own
        # bit for bit, and the bisection from them gives the scan's result
        calls = []
        bisect = bh.bisect_samples

        def spied(*args):
            calls.append((args[3], bisect(*args)))
            return calls[-1][1]

        monkeypatch.setattr(bh, "bisect_samples", spied)
        verify.run_checks()
        [(samples, got)] = calls
        ref = bh.parameter_scan(*SCANS["cone r 0.5:2/31"])
        assert [(x.hex(), float(r).hex()) for x, r in samples] == [
            (x.hex(), float(r).hex()) for x, r in ref.samples
        ]
        assert got == ref
        assert repr(got.to_dict()) == repr(ref.to_dict())

    def test_scan_of_a_param_no_component_reads(self):
        # the probe point is floats and the batch comes from the param, so
        # here the geometry is one point: every sample takes its residual
        spec = immersion(
            ("u", "v"), ("u", "v", "u*u+v*v"), {"k": 1.0}, AmbientChart("euclidean", 3)
        )
        res = bh.parameter_scan(spec, "k", 0.0, 1.0, 5, (0.3, 0.2))
        assert res.roots == () and res.failures == ()
        residual = bh.normal_residual(PointGeometry(spec, (0.3, 0.2)))
        assert residual != 0.0
        assert [r for _, r in res.samples] == [residual] * 5

    def test_exact_zero_at_the_last_sample_is_a_root(self):
        # a = 0 is the plane: its residual is exactly 0, and no bracket
        # ends there from the right
        spec = immersion(("u", "v"), ("u", "v", "a*u*u"), {"a": 1.0}, AmbientChart("euclidean", 3))
        res = bh.parameter_scan(spec, "a", -1.0, 0.0, 5, (0.3, 0.2))
        assert res.samples[-1] == (0.0, 0.0) and res.failures == ()
        assert res.roots[-1] == 0.0


# monotone functions with one simple root c, as (name, f(x, c, a)); x is a
# float or, for a batched scan, an array of parameter values
MONOTONE = {
    "linear": lambda x, c, a: a * (x - c),
    "atan": lambda x, c, a: a * np.arctan(x - c),
    "sinh": lambda x, c, a: a * np.sinh((x - c) / 4.0),
    "cubic": lambda x, c, a: a * ((x - c) ** 3 + (x - c)),
}


def _one_at_a_time(monkeypatch):
    """Make parameter_scan's bisection take one halving per round, with no
    predicted path: the scan as it runs without look-ahead."""
    monkeypatch.setattr(bh, "_SCAN_DEPTH", 1)
    monkeypatch.setattr(bh, "_secant", lambda *held: math.nan)


def _scan_reads(monkeypatch, residual):
    """Make parameter_scan's normal residual residual(r) of the scanned
    parameter r alone, with no geometry built: the bisection is tested
    apart from the geometry."""
    monkeypatch.setattr(bh, "PointGeometry", lambda spec, point: spec.params["r"])
    monkeypatch.setattr(bh, "normal_residual", residual)


class TestBisection:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(MONOTONE)),
        st.floats(-10.0, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(1e-6, 10.0),
        st.sampled_from([-3.0, -0.5, 0.25, 1.0, 40.0]),
    )
    def test_root_matches_scipy_bisect(self, name, c, below, above, a):
        lo, hi = c - below, c + above

        def f(x):
            return MONOTONE[name](x, c, a)

        assume(f(lo) * f(hi) < 0.0)
        with pytest.MonkeyPatch.context() as mp:
            _scan_reads(mp, f)
            res = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, 2, (1.0, 1.0))
        assert res.failures == ()
        assert res.roots == (bisect(f, lo, hi, xtol=1e-10),)

    def test_failure_off_the_path_leaves_the_scan_as_it_was(self, monkeypatch):
        # the root lies right of the first midpoint, so bisection never
        # evaluates inside (lo, mid); a batch holding such a value raises,
        # and only its halves that hold a midpoint on the path are evaluated
        lo, hi, c = 0.0, 1.0, 0.7
        mid = 0.5 * (lo + hi)
        evaluated, raised = [], []

        def plain(r):
            return r - c

        def raising(r):
            evaluated.append(r)
            if np.any((lo < r) & (r < mid)):
                raised.append(r)
                raise EvalDomainError("off the path")
            return plain(r)

        _scan_reads(monkeypatch, plain)
        ref = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, 2, (1.0, 1.0))
        _scan_reads(monkeypatch, raising)
        res = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, 2, (1.0, 1.0))
        assert res == ref
        assert res.failures == ()
        assert res.roots == (bisect(lambda x: x - c, lo, hi, xtol=1e-10),)
        # the samples, then one round: the residual is linear, so the secant
        # predicts every halving and the round's batch of 60 (its tree of
        # 31 and the predicted path's 29 midpoints beyond it) reaches the
        # root; halving it around the values in (lo, mid) makes 16 parts,
        # 10 of which raise (22 and 14 when the path carried both children
        # of each of its midpoints, a batch of 89; 20 and 8 with the tree
        # alone, over 7 rounds)
        assert len(evaluated) == 1 + 16
        assert len(raised) == 10
        assert all(np.any((lo < r) & (r < mid)) for r in raised)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(MONOTONE) + ["pole", "sine"]),
        st.floats(-10.0, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(1e-6, 10.0),
        st.sampled_from([-3.0, -0.5, 0.25, 1.0, 40.0]),
        st.integers(2, 12),
        st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
    )
    @example("sine", 0.3, 5.3, 4.7, 1.0, 8, None)  # three brackets in a round
    def test_scan_equals_the_one_point_at_a_time_scan(
        self, name, c, below, above, a, samples, raising
    ):
        # a pole at c, or a sine with roots c + k pi, several brackets in
        # one round; `raising` is a region (start, width) of [lo, hi], as
        # fractions of it, where an evaluation raises: on the path or off it
        lo, hi = c - below, c + above

        def f(x):
            if raising is not None:
                start = lo + raising[0] * (hi - lo)
                if np.any((start < x) & (x < start + raising[1] * (hi - lo))):
                    raise EvalDomainError("in the raising region")
            if name == "pole":
                with np.errstate(divide="ignore"):
                    return a / (x - c)
            if name == "sine":
                return a * np.sin(x - c)
            return MONOTONE[name](x, c, a)

        with pytest.MonkeyPatch.context() as mp:
            _scan_reads(mp, f)
            res = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, samples, (1.0, 1.0))
            _one_at_a_time(mp)
            ref = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, samples, (1.0, 1.0))
        assert res == ref
        assert repr(res.to_dict()) == repr(ref.to_dict())

    @pytest.mark.parametrize("end", [0, 1])
    def test_infinite_end_residual_falls_back_to_the_tree(self, monkeypatch, end):
        # the secant through an infinite residual predicts nothing, and no
        # RuntimeWarning is raised: the first round holds the tree alone,
        # and so does the next, as a round with no prediction never took
        # it; that round's halvings go the way its finite secant predicts,
        # so the third round holds the path again and reaches the root
        lo, hi, c = 0.0, 1.0, 0.7

        def f(r):
            return np.where(r == (lo, hi)[end], (-np.inf, np.inf)[end], r - c)

        _scan_reads(monkeypatch, f)
        sizes = []
        midpoints = bh._Bisection.midpoints

        def spied(self, start):
            xs = midpoints(self, start)
            sizes.append(len(xs))
            return xs

        monkeypatch.setattr(bh._Bisection, "midpoints", spied)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bh.parameter_scan(verify.cone(1.0), "r", lo, hi, 2, (1.0, 1.0))
        assert res.roots == (bisect(lambda x: x - c, lo, hi, xtol=1e-10),)
        assert sizes[:2] == [2**bh._SCAN_DEPTH - 1] * 2
        assert len(sizes) == 3 and sizes[2] > sizes[1]

    def test_import_leaves_scipy_out(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = "import sys, warpgeo; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
