import math

import numpy as np
import pytest

from warpgeo import jet as J
from warpgeo import oracle, warped
from warpgeo.ambient import AmbientChart, WarpEval
from warpgeo.errors import ConfigError, EvalDomainError, UsageError
from warpgeo.expr import eval_jet, free_symbols
from warpgeo.immersion import PointGeometry, immersion

INTERVAL = (-0.5, 1.0)
POINT = (0.3, -0.2)
# warps of the sweep tests, each with its interval and the dimension m of M
SWEEP_WARPS = [
    ("exp(t)", {}, INTERVAL, 2),
    ("sqrt(t+2)", {}, INTERVAL, 2),
    ("2+cos(t)", {}, INTERVAL, 3),
    ("(a*t+b)^(1/m)", {"a": 1.0, "b": 2.0, "m": 2}, (0.0, 1.5), 2),
    ("(a*t+b)^(1/m)", {"a": 3.0, "b": 1.0, "m": 3}, (0.0, 1.5), 3),
    ("t^t", {}, (0.5, 2.0), 2),
    ("2", {}, INTERVAL, 2),
]


@pytest.fixture
def slice_scene(sphere_slice):
    def make(warp="exp(t)", params=(), interval=INTERVAL, r=1.0, m=2):
        return warped.warped_scene(sphere_slice(r, m), warp, dict(params), interval)

    return make


def base_of(scene, point=POINT):
    return warped.base_point(scene.immersion, point)


def warped_riemann(scene, t, point=POINT):
    """R of (I x M, dt^2 + f^2 g) at (t, point), from the oracle."""
    riemann, _ = oracle.curvature_components(
        oracle.warped_inclusion_map(scene), (t,) + point
    )
    return riemann


class TestScene:
    def test_warp_at(self, slice_scene):
        w = slice_scene("sqrt(t+2)", interval=(-0.5, 2.0)).warp_at(2.0)
        assert w.t == 2.0
        assert w.f == pytest.approx(2.0)
        assert w.f1 == pytest.approx(0.25)
        assert w.f2 == pytest.approx(-1 / 32)

    @pytest.mark.parametrize("t", [5.0, -0.6, math.nan])
    def test_warp_at_refuses_t_outside_the_interval(self, slice_scene, t):
        # the warp is checked positive on the interval only
        with pytest.raises(UsageError, match=r"outside the warp interval \[-0.5, 1\]"):
            slice_scene().warp_at(t)
        with pytest.raises(UsageError):
            warped.warped_report(slice_scene(), t, POINT)

    def test_positivity_sampled(self, sphere_slice):
        with pytest.raises(EvalDomainError):
            warped.warped_scene(sphere_slice(1.0), "t", {}, (-1.0, 1.0))

    def test_positivity_names_the_first_failing_sample(self, sphere_slice):
        with pytest.raises(
            EvalDomainError, match=r"not positive and finite at t=1 \(f=inf\)"
        ):
            warped.warped_scene(sphere_slice(1.0), "t*1e200*t*1e200", {}, (1.0, 2.0))

    def test_positivity_uses_the_reports_evaluator(self, sphere_slice):
        # 2+t^200 is positive, but a report at t = -1 cannot evaluate it:
        # the scene is refused at load, not at the first report
        with pytest.raises(EvalDomainError, match="integer power 200"):
            warped.warped_scene(sphere_slice(1.0), "2+t^200", {}, (-1.0, 1.0))

    @pytest.mark.parametrize(
        "warp, interval", [("t^t", (0.5, 2.0)), ("(t+1)^(t/2)+1", (0.0, 1.0))]
    )
    def test_positivity_samples_are_the_reports_values(self, slice_scene, warp, interval):
        # an exponent that holds t takes one rule at every jet order, so the
        # order-0 samples equal warp_at's f bit for bit
        scene = slice_scene(warp, interval=interval)
        ts = np.linspace(*interval, warped._POSITIVITY_SAMPLES + 2)
        f = scene.warp_jet(J.jet_variable(0, ts, 1, 0)).coeffs[0]
        assert np.array_equal(f, [scene.warp_at(t).f for t in ts])

    def test_constant_warp(self, slice_scene):
        assert slice_scene("2").warp_at(0.5).f == 2.0
        with pytest.raises(EvalDomainError, match="at t=-0.5 "):
            slice_scene("-2")

    def test_empty_interval(self, sphere_slice):
        with pytest.raises(ConfigError):
            warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, (1.0, 1.0))

    def test_unbound_warp_symbol(self, sphere_slice):
        with pytest.raises(ConfigError):
            warped.warped_scene(sphere_slice(1.0), "a*t", {}, (0.1, 1.0))


# warps with subtrees that read no t, with their params
FOLDED_WARPS = [
    ("(a*t+b)^(1/m)", {"a": 1.0, "b": 2.0, "m": 2}),
    ("(a*t+b)^(1/m)", {"a": 3.0, "b": 1.0, "m": 3}),
    ("exp(t)*(2-1/3)", {}),
    ("t*log(2)+3", {}),
    ("-(1/m)*t+4", {"m": 3}),
    ("2+cos(t)*sqrt(a)", {"a": 2.0}),
]


def _reads_t_or_is_a_leaf(node):
    """Whether every subtree of `node` but a number or a name reads t."""
    parts = [getattr(node, k) for k in ("operand", "arg", "left", "right") if hasattr(node, k)]
    return all(map(_reads_t_or_is_a_leaf, parts)) and (
        not parts or "t" in free_symbols(node)
    )


class TestFold:
    """A scene folds its warp's subtrees that read no t once, and every
    value it gives is that of the parsed warp, bit for bit."""

    @staticmethod
    def _same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()  # -0.0 is not 0.0

    @pytest.mark.parametrize("warp, params", FOLDED_WARPS, ids=[
        f"{w} {p}" for w, p in FOLDED_WARPS
    ])
    def test_folded_warp_equals_the_parsed_one(self, slice_scene, warp, params):
        scene = slice_scene(warp, params, (0.0, 1.5))
        assert scene.folded != scene.warp and _reads_t_or_is_a_leaf(scene.folded)
        ts = np.linspace(0.05, 1.45, 7)
        for t in (ts, *map(float, ts)):
            parsed = eval_jet(scene.warp, {"t": J.jet_variable(0, t, 1, 2)}, params)
            w = scene.warp_at(t)
            for got, alpha in ((w.f, (0,)), (w.f1, (1,)), (w.f2, (2,))):
                assert self._same_bits(got, parsed.partial(alpha))

    @pytest.mark.parametrize("warp, message, span", [
        ("2+cos(1e308*1e308)", "cos series at inf leaves the float range", (2, 18)),
        ("exp(t)+log(0-1)", "log of non-positive value -1", (7, 15)),
    ])
    def test_constant_that_fails_is_left_to_fail_at_load(
        self, sphere_slice, warp, message, span
    ):
        # the fold sees 1e308*1e308 overflow (a warning) and log(-1) raise,
        # and leaves both to the positivity samples, which refuse them as
        # they refused the parsed warp
        with pytest.raises(EvalDomainError) as err:
            warped.warped_scene(sphere_slice(1.0), warp, {}, INTERVAL)
        assert (str(err.value), err.value.span) == (message, span)

    def test_unbound_name_in_a_constant(self, sphere_slice):
        with pytest.raises(ConfigError, match=r"^unbound identifiers in warp: \['c'\]$"):
            warped.warped_scene(sphere_slice(1.0), "exp(t)+sqrt(c)*2", {}, INTERVAL)


class TestPowerFamily:
    @pytest.mark.parametrize("a,b,m", [(1.0, 2.0, 2), (3.0, 1.0, 3), (-0.5, 4.0, 2)])
    def test_residual_vanishes(self, slice_scene, a, b, m):
        params = {"a": a, "b": b, "m": m}
        scene = slice_scene("(a*t+b)^(1/m)", params, interval=(0.1, 1.4))
        for t in np.linspace(0.1, 1.4, 5):
            assert scene.warp_at(t).power_residual(m) == pytest.approx(0.0, abs=1e-12)

    def test_exp_warp_closed_form(self, slice_scene):
        # f = e^t, m = 2: f f'' + f'^2 = 2 e^{2t}
        assert slice_scene("exp(t)").warp_at(0.0).power_residual(2) == pytest.approx(2.0)
        assert WarpEval(0.0, 1.0, 1.0, 1.0).power_residual(2) == pytest.approx(2.0)

    def test_nonmember_warp(self, slice_scene):
        assert abs(slice_scene("2+cos(t)").warp_at(0.5).power_residual(2)) > 0.1


class TestTension:
    def test_no_dt_component(self, slice_scene):
        scene = slice_scene()
        tau = warped.inclusion_tension(base_of(scene), scene.warp_at(0.3))
        assert tau[0] == 0.0

    def test_scaling(self, slice_scene):
        scene = slice_scene()
        pg = PointGeometry(scene.immersion, POINT)
        base, w = base_of(scene), scene.warp_at(0.5)
        tau = warped.to_chart(base, w, warped.inclusion_tension(base, w))
        f = math.exp(0.5)
        assert np.allclose(tau[1:], (2.0 / f**2) * pg.H_val)


class TestBitension:
    def test_tangential_part_formula(self, slice_scene):
        # over a biharmonic base the tangential part is -(m^2 f'/f^3)|H|^2 dt
        scene = slice_scene()
        t = 0.4
        pg = PointGeometry(scene.immersion, POINT)
        w = scene.warp_at(t)
        parts = warped.inclusion_bitension(base_of(scene), w)
        h2 = pg.e2_val * float(np.dot(pg.H_val, pg.H_val))
        assert parts.tangential[0] == pytest.approx(-4.0 * w.f1 / w.f**3 * h2)
        assert np.allclose(parts.tangential[1:], 0.0, atol=1e-7)
        assert parts.normal[0] == 0.0

    def test_split_reassembles(self, slice_scene):
        scene = slice_scene("2+cos(t)")
        parts = warped.inclusion_bitension(base_of(scene), scene.warp_at(0.5))
        assert parts.vec[0] == pytest.approx(parts.tangential[0] + parts.normal[0])
        assert np.allclose(parts.vec[1:], parts.tangential[1:] + parts.normal[1:], atol=1e-12)

    def test_mean_curvature_coeff(self, slice_scene):
        scene = slice_scene()  # f = e^t, m = 2, over the biharmonic r = 1 slice
        base, w = base_of(scene), scene.warp_at(0.0)
        vec = warped.to_chart(base, w, warped.inclusion_bitension(base, w).vec)
        H = PointGeometry(scene.immersion, POINT).H_val
        # tau_2(i) = 0, so the normal part is 2m [f f'' + (m-1) f'^2] / f^4 H
        # = 2*2*2 H = 8 H at t = 0
        assert vec[1:] == pytest.approx(8.0 * H)


class TestPairing:
    def test_exponential_values(self, slice_scene):
        scene = slice_scene()
        for t, ref in ((0.0, 16.0), (0.5, 16.0 * math.exp(-1.0))):
            pr = warped.pairing(base_of(scene), scene.warp_at(t))
            assert pr.pairing == pytest.approx(ref, abs=1e-6)
            assert pr.pairing_closed_form == pytest.approx(ref, abs=1e-6)
            assert pr.pairing_closed_form_applicable

    def test_gate_on_nonbiharmonic_base(self, cone):
        scene = warped.warped_scene(cone(1.0), "exp(t)", {}, INTERVAL)
        pr = warped.pairing(base_of(scene, (1.0, 0.7)), scene.warp_at(0.0))
        assert not pr.pairing_closed_form_applicable


class TestRicciCheck:
    PER_T_FIELDS = ("ric_warped", "identity_residual", "pairing_via_ricci", "pairing_closed_form")

    def test_identity_and_pairing(self, slice_scene):
        scene = slice_scene("sqrt(t+2)")
        pg = PointGeometry(scene.immersion, POINT)
        x = np.array([1.0, 0.0]) / math.sqrt(pg.g_val[0, 0])
        rc = warped.ricci_warped_check(
            base_of(scene), scene.warp_at(0.3), x, warped_riemann(scene, 0.3)
        )
        assert rc.identity_residual == pytest.approx(0.0, abs=1e-6)
        assert rc.pairing_via_ricci == pytest.approx(
            rc.pairing_closed_form, abs=1e-7 * (1 + abs(rc.pairing_closed_form))
        )

    def test_exponential_flattens(self, slice_scene):
        scene = slice_scene()
        pg = PointGeometry(scene.immersion, POINT)
        x = np.array([0.0, 1.0]) / math.sqrt(pg.g_val[1, 1])
        rc = warped.ricci_warped_check(
            base_of(scene), scene.warp_at(0.0), x, warped_riemann(scene, 0.0)
        )
        assert rc.ric_base == pytest.approx(2.0, abs=1e-6)
        assert rc.ric_warped == pytest.approx(0.0, abs=1e-6)

    def test_requires_unit_vector(self, slice_scene):
        scene = slice_scene()
        with pytest.raises(UsageError):
            warped.ricci_warped_check(
                base_of(scene), scene.warp_at(0.0), np.array([1.0, 0.0]),
                warped_riemann(scene, 0.0),
            )

    def test_nan_x_is_refused(self, slice_scene):
        # |X| is NaN, and NaN is not within 1e-10 of 1
        scene = slice_scene()
        with pytest.raises(UsageError, match="unit"):
            warped.ricci_warped_check(
                base_of(scene), scene.warp_at(0.3), [math.nan, 0.0],
                warped_riemann(scene, 0.3),
            )

    @pytest.mark.parametrize("x", [[1.0], [1.0, 0.0, 0.0], 1.0, [[1.0, 0.0]]])
    def test_x_of_the_wrong_length(self, slice_scene, x):
        scene = slice_scene()
        with pytest.raises(UsageError, match="X must have 2 components"):
            warped.ricci_warped_check(
                base_of(scene), scene.warp_at(0.0), x, warped_riemann(scene, 0.0)
            )

    @pytest.mark.parametrize("warp, t", [("exp(t)", 0.0), ("2+cos(t)", 0.3)])
    def test_given_riemann_equals_the_computed_one(self, slice_scene, warp, t):
        scene = slice_scene(warp)
        pg = PointGeometry(scene.immersion, POINT)
        x = np.array([1.0, 0.0]) / math.sqrt(pg.g_val[0, 0])
        rec = oracle.first_principles(oracle.warped_inclusion_map(scene), (t,) + POINT)
        base, w = base_of(scene), scene.warp_at(t)
        given = warped.ricci_warped_check(base, w, x, rec.riemann)
        assert given == warped.ricci_warped_check(base, w, x, warped_riemann(scene, t))

    @pytest.mark.parametrize(
        "components",
        [("u", "v", "r"), ("u", "v", "0.5+u*v+0.3*u*u")],
        ids=["slice", "graph"],
    )
    def test_base_ricci_equals_the_induced_metric_rule(self, components):
        # Ric(M, g) from the BasePoint's Christoffels, not from a new seed
        spec = immersion(("u", "v"), components, {"r": 1.0}, AmbientChart("sphere", 3))
        scene = warped.warped_scene(spec, "sqrt(t+2)", {}, INTERVAL)
        pg = PointGeometry(spec, POINT)
        v = np.array([0.6, 0.8])
        x = v / math.sqrt(v @ pg.g_val @ v)
        rc = warped.ricci_warped_check(
            base_of(scene), scene.warp_at(0.3), x, warped_riemann(scene, 0.3)
        )
        riem, _ = oracle.curvature_components(oracle.inclusion_map(spec), POINT)
        ref = oracle.ricci(riem, x)
        assert rc.ric_base == ref

    @pytest.mark.parametrize(
        "warp, params, interval, m", SWEEP_WARPS, ids=[f"{w[0]} m={w[3]}" for w in SWEEP_WARPS]
    )
    def test_sweep_equals_its_one_t_checks(self, slice_scene, warp, params, interval, m):
        # R over the sweep is one batched oracle record, as verify reads it
        scene = slice_scene(warp, params, interval, m=m)
        point = (0.3, -0.2, 0.1)[:m]
        base = base_of(scene, point)
        x = np.eye(m)[0] / math.sqrt(base.geometry.g_val[0, 0])
        ts = np.linspace(interval[0] + 0.05, interval[1] - 0.05, 7)
        mapspec = oracle.warped_inclusion_map(scene)
        riemann = oracle.first_principles(mapspec, (ts,) + point).riemann
        sweep = warped.ricci_warped_check(base, scene.warp_at(ts), x, riemann)
        for i, t in enumerate(ts):
            one = warped.ricci_warped_check(base, scene.warp_at(float(t)), x, riemann[i])
            assert type(sweep.ric_base) is float and sweep.ric_base == one.ric_base
            for name in self.PER_T_FIELDS:
                a, b = getattr(sweep, name)[i], getattr(one, name)
                assert type(b) is float
                assert np.array_equal(a, b)
                assert np.signbit(a) == np.signbit(b)


class TestReport:
    def test_report_fields(self, slice_scene):
        scene = slice_scene()
        rep = warped.warped_report(scene, 0.0, POINT)
        assert rep.warp.f == pytest.approx(1.0)
        assert rep.pairing == pytest.approx(16.0, abs=1e-6)
        assert rep.pairing_closed_form_applicable
        assert rep.power_residual == pytest.approx(2.0)
        (d,) = rep.to_dicts()
        assert d["tension"]["t"] == 0.0
        assert len(d["bitension"]["n"]) == 3


class TestSweep:
    """A sweep over an array of t is one warp evaluation and one pairing;
    each of its t equals the one-t report bit for bit."""

    @pytest.mark.parametrize(
        "warp, params, interval, m", SWEEP_WARPS, ids=[f"{w[0]} m={w[3]}" for w in SWEEP_WARPS]
    )
    def test_sweep_equals_its_one_t_reports(self, slice_scene, warp, params, interval, m):
        scene = slice_scene(warp, params, interval, m=m)
        point = (0.3, -0.2, 0.1)[:m]
        ts = np.linspace(interval[0] + 0.05, interval[1] - 0.05, 7)
        sweep = warped.warped_report(scene, ts, point)
        assert sweep.tension.shape == sweep.bitension.vec.shape == (7, m + 2)
        dicts = sweep.to_dicts()
        for i, t in enumerate(ts):
            one = warped.warped_report(scene, float(t), point)
            (one_dict,) = one.to_dicts()
            assert repr(dicts[i]) == repr(one_dict)  # repr tells -0.0 from 0.0
            for a, b in (
                (sweep.tension[i], one.tension),
                (sweep.bitension.tangential[i], one.bitension.tangential),
                (sweep.bitension.normal[i], one.bitension.normal),
            ):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    @staticmethod
    def _dicts_of_each_t(rep):
        """Each t of a sweep as a dict, field by field from the sweep's
        arrays: the reference for to_dicts, which builds the dicts of a
        sweep one column at a time.  Its vectors are in warped-chart
        components, which to_dicts forms from the report's frame ones."""
        tau2 = rep.bitension
        taus, vecs = (warped.to_chart(rep.base, rep.warp, v) for v in (rep.tension, tau2.vec))
        return [
            {
                **{name: float(getattr(rep.warp, name)[i]) for name in ("t", "f", "f1", "f2")},
                "point": list(rep.base.geometry.point),
                "tension": {"t": float(tau[0]), "n": tau[1:].tolist()},
                "bitension": {"t": float(vec[0]), "n": vec[1:].tolist()},
                "pairing": float(rep.pairing[i]),
                "pairing_closed_form": float(rep.pairing_closed_form[i]),
                "pairing_closed_form_applicable": rep.pairing_closed_form_applicable,
                "power_residual": float(rep.power_residual[i]),
                "tangential_part_norm": float(tau2.tangential_norm[i]),
                "normal_part_norm": float(tau2.normal_norm[i]),
            }
            for i, (tau, vec) in enumerate(zip(taus, vecs))
        ]

    def test_long_sweep_dicts_equal_the_dicts_of_its_t(self, slice_scene):
        # warpgeo warp --json writes to_dicts
        ts = np.linspace(-0.5, 1.0, 20000)
        sweep = warped.warped_report(slice_scene(), ts, POINT)
        per_t = self._dicts_of_each_t(sweep)
        assert repr(sweep.to_dicts()) == repr(per_t)  # repr tells -0.0 from 0.0
        one = warped.warped_report(slice_scene(), float(ts[7]), POINT)
        assert repr(one.to_dicts()) == repr(per_t[7:8])

    def test_sweep_names_the_first_t_outside_the_interval(self, slice_scene):
        with pytest.raises(UsageError, match=r"^t = 2 lies outside"):
            slice_scene().warp_at([0.0, 2.0, 3.0, -1.0])

    def test_warp_eval_names_the_first_failing_t(self):
        t, zero = np.arange(3.0), np.zeros(3)
        with pytest.raises(EvalDomainError, match=r"must be positive, got -2$"):
            WarpEval(t, np.array([1.0, -2.0, -3.0]), zero, zero)
        with pytest.raises(EvalDomainError, match=r"must be finite, got f=inf"):
            WarpEval(t, np.array([1.0, math.inf, -3.0]), zero, zero)
        with pytest.raises(EvalDomainError, match=r"f=1, f'=1, f''=nan"):
            WarpEval(t, np.ones(3), np.ones(3), np.array([0.0, math.nan, 0.0]))

    @pytest.mark.parametrize(
        "warp, interval, ts",
        [
            ("t", (1e-300, 1.0), [0.5, 1e-150, 1e-300]),
            ("exp(t)", (-200.0, 0.0), [-1.0, -190.0, -200.0]),
            ("exp(t)", (0.0, 200.0), [1.0, 190.0, 200.0]),
        ],
    )
    def test_f4_out_of_the_normal_range_is_refused(self, slice_scene, warp, interval, ts):
        # the closed forms divide by f^4: at one t it underflowed to 0.0 (a
        # ZeroDivisionError) or overflowed (an OverflowError), and a sweep
        # gave NaN, inf or 0; a sweep names its first failing t
        scene = slice_scene(warp, interval=interval)
        with pytest.raises(EvalDomainError) as one:
            warped.warped_report(scene, ts[1], POINT)
        with pytest.raises(EvalDomainError) as sweep:
            warped.warped_report(scene, np.array(ts), POINT)
        f = scene.warp_jet(J.jet_variable(0, ts[1], 1, 0)).value
        assert str(one.value) == str(sweep.value) == (
            f"f^4 of the warping function must be a finite normal float, got f={f:g}"
        )


    @pytest.mark.parametrize(
        "warp, interval, ts, message",
        [
            # f'^2 overflows while f, f', f'' and f^4 are finite
            ("1+1e200*t", (0.0, 1e-190), [0.0, 5e-191, 1e-190],
             "f'^2 of the warping function must be finite, got f'=1e+200 at t=0"),
            # f f'' overflows, so P does
            ("1e10+1e300*t^2", (0.0, 1e-160), [0.0, 5e-161, 1e-160],
             "f f'' + (m-1) f'^2 of the warping function must be finite, got "
             "f=1e+10, f'=0, f''=2e+300 at t=0"),
        ],
        ids=["f1 squared", "residual"],
    )
    def test_f1_squared_and_residual_out_of_the_float_range_are_refused(
        self, slice_scene, warp, interval, ts, message
    ):
        # at one t the f'^2 scene raised a bare OverflowError, and a sweep
        # reported a NaN pairing and an infinite residual
        scene = slice_scene(warp, interval=interval)
        with pytest.raises(EvalDomainError) as one:
            warped.warped_report(scene, ts[0], POINT)
        with pytest.raises(EvalDomainError) as sweep:
            warped.warped_report(scene, np.array(ts), POINT)
        assert str(one.value) == str(sweep.value) == message

    @pytest.mark.parametrize(
        "warp, params, interval, m", SWEEP_WARPS, ids=[f"{w[0]} m={w[3]}" for w in SWEEP_WARPS]
    )
    def test_sweep_factors_equal_their_one_t_factors(self, slice_scene, warp, params, interval, m):
        # the powers of f and f' a WarpEval forms once for the closed forms
        scene = slice_scene(warp, params, interval, m=m)
        ts = np.linspace(interval[0] + 0.05, interval[1] - 0.05, 7)
        sweep = scene.warp_at(ts)
        for i, t in enumerate(ts):
            one = scene.warp_at(float(t))
            for name in ("f_pow3", "f_pow4", "f1_pow2"):
                a, b = getattr(sweep, name)[i], getattr(one, name)
                assert type(b) is float
                assert np.array_equal(a, b)
                assert np.signbit(a) == np.signbit(b)


class TestBasePoint:
    """One warped.BasePoint serves every report at a point of M."""

    def test_memo_gives_fresh_reports_bit_for_bit(self, slice_scene, monkeypatch):
        scene = slice_scene()
        requests = [(t, POINT) for t in (0.0, 0.05, 0.1, 0.15, 0.2)]
        requests += [(0.3, (0.0, 0.2)), (0.3, (-0.0, 0.2))] * 2
        shared = [warped.warped_report(scene, t, p).to_dicts() for t, p in requests]
        fresh = []
        for t, p in requests:
            monkeypatch.setattr(warped, "_memo", None)
            fresh.append(warped.warped_report(scene, t, p).to_dicts())
        assert repr(shared) == repr(fresh)  # repr tells -0.0 from 0.0
        # the two points differ in the sign bit of their first coordinate alone
        x_pos = np.array(warped.base_point(scene.immersion, (0.0, 0.2)).geometry.point)
        x_neg = np.array(warped.base_point(scene.immersion, (-0.0, 0.2)).geometry.point)
        assert np.array_equal(x_pos, x_neg)
        assert np.signbit(x_neg[0]) and not np.signbit(x_pos[0])

    def test_nan_point_never_hits(self, slice_scene, monkeypatch):
        spec = slice_scene().immersion
        point = (float("nan"), 0.2)
        stale = warped.base_point(spec, POINT)
        key = np.array(point).tobytes()
        monkeypatch.setattr(warped, "_memo", (spec, key, stale))
        with pytest.raises(EvalDomainError):
            warped.base_point(spec, point)

    def test_shared_arrays_are_read_only(self, slice_scene):
        scene = slice_scene()
        base = base_of(scene)
        warped.inclusion_bitension(base, scene.warp_at(0.3))
        pg = base.geometry
        arrays = [a for a in vars(pg).values() if isinstance(a, np.ndarray)]
        arrays += [pg.e2.coeffs, base.eH, base.e_tau2_i, *base.e_tau2_i_split]
        assert len(arrays) >= 22
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_one_conformal_factor_per_point(self, sphere_slice):
        # the frame's factor e and |H|^2_h read the geometry's one e2; at
        # this point |x|^2 summed in another order rounds e2 differently
        base = warped.base_point(sphere_slice(1.0, 3), (-0.1, -0.3, 0.1))
        e2, H = base.geometry.e2_val, base.geometry.H_val
        assert base.e == math.sqrt(e2)
        assert np.array_equal(base.eH, base.e * H)
        assert base.h2 == e2 * np.vecdot(H, H)
        # |eH|^2 is |H|^2_h; its rounding differs, so h2 keeps e2 H . H,
        # whose bits verify's "pairing via Ricci" expected values pin
        assert np.vecdot(base.eH, base.eH) == pytest.approx(base.h2, rel=1e-15, abs=0.0)
