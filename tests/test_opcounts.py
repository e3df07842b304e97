"""Deterministic operation counts.

Each point's PointGeometry is built once by its caller and passed down (the
warped layer shares one `warped.BasePoint` across a t-sweep), and the oracle
evaluates a map once per point, so the number of builds, metric evaluations
and jet products per workload is fixed; a change that evaluates a point
again raises these counts.
"""

import functools
import json
import sys

import numpy as np
import pytest

from warpgeo import ambient, biharmonic, cli, expr, jet, oracle, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.immersion import PointGeometry, immersion

POINT = (0.3, -0.2)


@pytest.fixture
def counts(monkeypatch):
    seen = {
        "builds": 0,
        "inclusion_bitension": 0,
        "base_point": 0,
        "submanifold_bitension": 0,
        "induced_metric_jets": 0,
        "mul": 0,
        "contract": 0,
        "constant_plans": 0,
        "warp_at": 0,
        "classify": 0,
        "_tension_pipeline": 0,
        "curvature_components": 0,
        "warped_scene": 0,
        "eval_jet": 0,
        "eval_value": 0,
        "jpow": 0,
        "ricci_warped_check": 0,
    }
    init = PointGeometry.__init__

    def counted_init(self, *args, **kwargs):
        seen["builds"] += 1
        init(self, *args, **kwargs)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    mul = jet.Jet.__mul__

    def counted_mul(self, other):
        seen["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(jet.Jet, "__mul__", counted_mul)
    monkeypatch.setattr(jet.Jet, "__rmul__", counted_mul)
    warp_at = warped.WarpedScene.warp_at

    def counted_warp_at(self, t):
        seen["warp_at"] += 1
        return warp_at(self, t)

    monkeypatch.setattr(warped.WarpedScene, "warp_at", counted_warp_at)
    plan = jet._plan

    def counted_plan(*key):
        seen["constant_plans"] += key[-1] != ""
        return plan(*key)

    monkeypatch.setattr(jet, "_plan", counted_plan)
    counted(jet, "contract")
    counted(jet, "jpow")
    counted(warped, "inclusion_bitension")
    counted(warped, "base_point")
    counted(oracle, "submanifold_bitension")
    counted(oracle, "induced_metric_jets")
    counted(warped, "classify")
    counted(oracle, "_tension_pipeline")
    counted(oracle, "curvature_components")
    counted(warped, "warped_scene")
    counted(warped, "ricci_warped_check")
    counted(warped, "eval_jet")
    # every module that binds eval_value, as `from .expr import eval_value`
    # would, calls its own binding
    eval_value = expr.eval_value
    for name, module in list(sys.modules.items()):
        if name.startswith("warpgeo") and getattr(module, "eval_value", None) is eval_value:
            counted(module, "eval_value")
    monkeypatch.setattr(warped, "_memo", None)
    return seen


def _scene():
    spec = verify.sphere_slice(1.0)
    return warped.warped_scene(spec, "exp(t)", {}, verify.WARP_INTERVAL)


def test_scene_evaluates_the_warp_once_when_built(counts):
    # the positivity samples are one batch
    _scene()
    assert counts["eval_jet"] == 1


def test_variable_exponent_scene_build(counts):
    # t^t takes exp(t log t) at order 0 as at every order: its positivity
    # samples are one batched product, with no jpow
    warped.warped_scene(verify.sphere_slice(1.0), "t^t", {}, (0.5, 2.0))
    assert counts["jpow"] == 0
    assert counts["contract"] == 1


def test_warped_report_builds_geometry_once(counts):
    warped.warped_report(_scene(), 0.3, POINT)
    assert counts["builds"] == 1
    assert counts["inclusion_bitension"] == counts["submanifold_bitension"] == 1


def test_warped_report_looks_up_its_base_point_once(counts):
    # pairing passes the BasePoint to the tension and the bitension
    scene = _scene()
    for t in (0.1, 0.2, 0.3):
        warped.warped_report(scene, t, POINT)
    assert counts["base_point"] == 3


def test_warped_report_evaluates_the_warp_once(counts):
    warped.warped_report(_scene(), 0.3, POINT)
    assert counts["warp_at"] == 1


def test_cli_warp_sweep_is_one_evaluation(counts, tmp_path):
    # five t are one warp evaluation, one build and one pairing
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "ambient": {"model": "sphere", "dim": 3},
        "immersion": {"variables": ["u", "v"], "components": ["u", "v", "r"],
                      "params": {"r": 1.0}},
        "warp": {"expr": "exp(t)", "interval": [-0.5, 1.0]},
    }))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["warp", str(scene), "--t", "0:0.2:5", "--point", "0.3,-0.2"])
    assert exit_.value.code == 0
    assert counts["warp_at"] == counts["builds"] == counts["inclusion_bitension"] == 1


def test_warped_sweep_shares_one_base_point(counts):
    scene = _scene()
    for t in (0.1, 0.15, 0.2, 0.25, 0.3):
        warped.warped_report(scene, t, POINT)
    assert counts["builds"] == counts["submanifold_bitension"] == 1
    assert counts["classify"] == 1  # the biharmonic gate
    assert counts["warp_at"] == counts["inclusion_bitension"] == 5


def test_sweep_after_another_point_builds_once(counts):
    # the memo holds the last BasePoint: a sweep's first report replaces
    # the other point's, and the rest of the sweep reads it
    scene = _scene()
    warped.base_point(scene.immersion, (0.1, 0.1))
    counts["builds"] = counts["submanifold_bitension"] = 0
    for t in (0.1, 0.15, 0.2, 0.25, 0.3):
        warped.warped_report(scene, t, POINT)
    assert counts["builds"] == counts["submanifold_bitension"] == 1


def test_pairing_reuses_the_base_point(counts):
    # every warped function at one point, for two warps of one base, reads
    # the same record; another point, or another spec object, builds anew
    scene = _scene()
    other = warped.warped_scene(scene.immersion, "2+cos(t)", {}, verify.WARP_INTERVAL)
    warped.warped_report(scene, 0.3, POINT)
    warped.warped_report(other, 0.5, POINT)
    base = warped.base_point(scene.immersion, POINT)
    warped.inclusion_tension(base, other.warp_at(0.5))
    warped.inclusion_bitension(base, other.warp_at(0.5))
    riemann, _ = oracle.curvature_components(
        oracle.warped_inclusion_map(scene), (0.3,) + POINT
    )
    x = [base.geometry.g_val[0, 0] ** -0.5, 0.0]
    warped.ricci_warped_check(base, scene.warp_at(0.3), x, riemann)
    assert counts["builds"] == counts["submanifold_bitension"] == 1
    warped.warped_report(scene, 0.3, (0.3, 0.2))
    copy = warped.warped_scene(
        scene.immersion.with_params(), "exp(t)", {}, verify.WARP_INTERVAL
    )
    warped.warped_report(copy, 0.3, (0.3, 0.2))
    assert counts["builds"] == counts["submanifold_bitension"] == 3


def test_verify_pass_build_count(counts):
    # the closed-form fixtures: one batch per family, r a batch param, 2,
    # the cone's also holding the scan's samples (3 when the scan sampled
    # on its own); the scan's bisection: 1, as it reaches the root in the
    # one round the secant predicts (6 with the look-ahead tree alone); the
    # S4 slice's BasePoint: 1.  The r = 1 slice's and the cone's
    # BasePoints are rows of the family builds (7 when each was built on
    # its own)
    verify.run_checks()
    assert counts["builds"] == 4


@pytest.fixture
def built_rows(monkeypatch):
    """Every (immersion, params, point) row of every PointGeometry build,
    each batch spread into its rows."""
    rows = []
    init = PointGeometry.__init__

    def recorded_init(self, spec, point):
        params = {k: np.asarray(v, dtype=float) for k, v in spec.params.items()}
        coords = [np.asarray(c, dtype=float) for c in point]
        arrays = np.broadcast_arrays(*params.values(), *coords)
        for values in zip(*(a.ravel().tolist() for a in arrays)):
            rows.append((spec.components, spec.ambient, tuple(params), values))
        init(self, spec, point)

    monkeypatch.setattr(PointGeometry, "__init__", recorded_init)
    monkeypatch.setattr(warped, "_memo", None)
    return rows


def test_verify_pass_builds_no_row_twice(built_rows):
    # the warped checks read their base points as rows of the closed-form
    # families (the r = 1 slice at (0.3, -0.2) was built twice before), and
    # the cone scan's samples are rows of the cone family, which holds its
    # r = 1 and r = 2 at (1, 1) once (built again by the scan's own
    # sampling before)
    verify.run_checks()
    seen = set()
    repeated = [row for row in built_rows if row in seen or seen.add(row)]
    assert repeated == []


def test_scan_bisects_from_the_sampled_ends(counts, built_rows):
    # 31 samples in one batch, then 29 midpoints for the one bracket around
    # r = 1: every halving goes the way the secant through the bracket's
    # sampled ends predicts, so its first round's batch, the tree of 5
    # halvings and the predicted path beyond it, holds all 29: 1 + 1 builds
    # (1 + 6 with the tree alone, 5 halvings a round).  The round's rows:
    # the tree's 31 and the path's 24 beyond it, one per halving (79 when
    # the path carried both children of each of its midpoints)
    biharmonic.parameter_scan(verify.cone(1.0), "r", 0.5, 2.0, 31, (1.0, 1.0))
    assert counts["builds"] == 2
    assert len(built_rows) == 31 + 55


def test_scan_halves_a_batch_around_a_failing_sample(counts):
    # r = 0 is degenerate: the batch of 101 samples and each part that
    # holds r = 0 as it is halved down to r = 0 alone raise, 7 attempts; 6
    # parts hold the other samples; then the brackets around r = -1 and
    # r = 1 take one build per round, 6
    biharmonic.parameter_scan(verify.cone(1.0), "r", -1.0, 1.0, 101, (1.0, 1.0))
    assert counts["builds"] <= 20


def test_scan_of_a_param_in_an_exponent(counts):
    # each sample takes its own power rule in one batch; the bisection
    # takes 3 rounds, each holding the predicted path, which the halvings
    # of the first two leave below the tree: 1 + 3 builds (1 + 6 with the
    # look-ahead tree alone)
    spec = immersion(
        ("u", "v"), ("u", "v", "u^p+v"), {"p": 2.0}, AmbientChart("euclidean", 3)
    )
    biharmonic.parameter_scan(spec, "p", 1.5, 3.0, 16, (0.5, 0.3))
    assert counts["builds"] == 4


@pytest.mark.parametrize("name", ["tension_first_principles", "bitension_first_principles"])
def test_oracle_evaluates_each_map_once(counts, name):
    scene = _scene()
    for mapspec, point in (
        (oracle.inclusion_map(scene.immersion), POINT),
        (oracle.warped_inclusion_map(scene), (0.3,) + POINT),
    ):
        counts["induced_metric_jets"] = 0
        getattr(oracle, name)(mapspec, point)
        assert counts["induced_metric_jets"] == 1


def test_verify_pass_mul_count(counts):
    # Jet.__mul__ calls and jet tensor contractions; every jet x jet
    # product, Horner steps included, is one contraction, but a jet times a
    # constant of the DSL, or a series' first Horner step, is a scale, and a
    # contraction with a constant factor forms only its value's terms; each
    # scene's positivity samples are one order-0 evaluation of its warp, and
    # its t samples one more of order 2; the oracle runs one pipeline per
    # base point, its warps a leading batch axis of t; the cone scan makes 2
    # builds (7, and 90, 383 and 75 here, with the look-ahead tree alone);
    # each power scene's 1/m is one product when the scene folds it, where
    # its positivity samples and its t samples each formed it (70 and 263).
    # The slice's and the cone's BasePoints are rows of the family builds,
    # and the cone's tensions read the slice's warps: the two one-point
    # builds' 6 + 4 products, 23 + 24 contractions and 10 + 3 constant
    # plans and the cone sweeps' 3 Horner steps are gone (67, 260 and 60).
    # The scan's samples are rows of the cone family build, and the cone's
    # tension checks form neither its tau_2(i) nor its classify gate: its
    # own sample build's 4 products, 24 contractions and 3 constant plans
    # are gone (57, 210 and 47).  The pull-back Hessians' three (with Gbar)
    # and each hypersurface build's two Laplacian contractions are on
    # order-0 jets, constant plans all, the arithmetic einsum did on values
    # (186 contractions and 44 constant plans before)
    verify.run_checks()
    assert counts["mul"] == 53
    assert counts["contract"] == 203
    assert counts["constant_plans"] == 61


def test_verify_pass_base_point_count(counts):
    # tau_2(i) and the classify gate of the warped checks' two base points,
    # the r = 1 slice's and the S4 slice's; the cone's tension checks read
    # only its geometry's H and e2 (3 and 3 with the cone's BasePoint)
    verify.run_checks()
    assert counts["submanifold_bitension"] == 2
    assert counts["classify"] == 2


def test_verify_pass_oracle_count(counts):
    # one order-4 pipeline on the slice, batched over its warps and
    # T_SAMPLES, serves the tension, bitension and Ricci checks; the cone's
    # tensions are one order-2 pipeline over the same batch; Ric(M) comes
    # from the BasePoint.  Scenes: the 3 WARPS, whose scenes on the slice
    # also serve the cone (11 with the cone's own 3), 3 power warps and 2
    # more tangential ones
    verify.run_checks()
    assert counts["_tension_pipeline"] == 2
    assert counts["curvature_components"] == 0
    assert counts["warped_scene"] == 8


def test_verify_pass_ricci_check_count(counts):
    # one check per warp of the slice over T_SAMPLES, the flat exp(t)
    # check read from its t = 0 (7 with one check per t and one more for
    # the flat check)
    verify.run_checks()
    assert counts["ricci_warped_check"] == 3


def test_verify_pass_evaluates_each_warp_once_per_sweep(counts):
    # one sweep over T_SAMPLES per scene of the slice, which the cone's
    # checks read too (3; 6 with sweeps of the cone's own scenes), one per
    # power case (3), the cosine's two t and one t for each of the two
    # further tangential warps (3), and the pairing's two t (1)
    verify.run_checks()
    assert counts["warp_at"] == 10


def test_verify_pass_evaluates_no_plain_float_warp(counts):
    # the positivity samples go through the jet evaluator every report uses
    verify.run_checks()
    assert counts["eval_value"] == 0
    assert counts["eval_jet"] > 0


@pytest.mark.parametrize(
    "spec, mul, contract, constant",
    [(verify.cone(1.0), 4, 26, 5), (verify.sphere_slice(1.0), 6, 25, 12)],
    ids=["cone", "slice"],
)
def test_grid_classify_is_one_batched_pass(counts, spec, mul, contract, constant):
    # a 16-point grid costs the jet products of one point: one batched build;
    # the Laplacian of lambda is two contractions on order-0 jets, constant
    # plans both (24, 3 and 23, 10 when it was formed on values)
    biharmonic.classify(spec, [POINT], 1e-7)
    one = dict(counts)
    assert (one["mul"], one["contract"], one["constant_plans"]) == (mul, contract, constant)
    grid = [(0.2 + 0.1 * i, -0.3 + 0.2 * j) for i in range(4) for j in range(4)]
    biharmonic.classify(spec, grid, 1e-7)
    assert counts["mul"] - one["mul"] == one["mul"]
    assert counts["contract"] - one["contract"] == one["contract"]
    assert counts["builds"] - one["builds"] == one["builds"] == 1


def test_three_dimensional_classify_count(counts):
    # an S4 slice: the metric inverse and the normal are contractions, so a
    # 3x3 metric costs no more scalar products than a 2x2 one; its chart is
    # linear, so its tangents are constant jets; the Laplacian of lambda
    # adds two order-0 contractions (24, 11 before)
    biharmonic.classify(verify.sphere_slice(0.7, 3), [POINT + (0.1,)], 1e-7)
    assert (counts["mul"], counts["contract"], counts["constant_plans"]) == (6, 26, 13)


# numpy's Python-level helpers a build does without
NUMPY_HELPERS = ("moveaxis", "stack", "broadcast_arrays", "mean")


@pytest.fixture
def numpy_calls(monkeypatch):
    seen = dict.fromkeys(("einsum", "cholesky") + NUMPY_HELPERS, 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("einsum",) + NUMPY_HELPERS:
        counted(np, name)
    counted(np.linalg, "cholesky")
    return seen


def test_products_make_no_einsum(numpy_calls):
    # a curved chart's three Christoffel terms and the permutation symbol's
    # first factor of the normal; every jet product is a contraction
    PointGeometry(verify.sphere_slice(1.0), POINT)
    assert numpy_calls["einsum"] == 4


@pytest.mark.parametrize(
    "spec, point",
    [(verify.sphere_slice(1.0), POINT), (verify.cone(1.0), (1.2, 0.4)),
     (verify.sphere_slice(0.7, 3), POINT + (0.1,))],
    ids=["slice", "cone", "S4 slice"],
)
def test_build_calls_no_numpy_python_helper(numpy_calls, spec, point):
    # axes move by transpose, jet.stack fills one array, and the metric's
    # scale is a sum over its diagonal divided by its length; the first
    # build compiles the plans and tables the second reads
    PointGeometry(spec, point)
    numpy_calls.update(dict.fromkeys(NUMPY_HELPERS, 0))
    PointGeometry(spec, tuple(x + 0.01 for x in point))
    assert [numpy_calls[name] for name in NUMPY_HELPERS] == [0, 0, 0, 0]


def test_frame_is_computed_when_read(numpy_calls):
    pg = PointGeometry(verify.sphere_slice(1.0), POINT)
    assert numpy_calls["cholesky"] == 0
    assert pg.A_frame.shape == (2, 2)
    assert numpy_calls["cholesky"] == 1


@pytest.fixture
def conformal_factors(monkeypatch):
    calls = []
    factor = AmbientChart._conformal_factor

    def counted(self, s):
        calls.append(s)
        return factor(self, s)

    monkeypatch.setattr(AmbientChart, "_conformal_factor", counted)
    return calls


@pytest.mark.parametrize("model", ["sphere", "hyperbolic"])
def test_one_conformal_factor_per_build(conformal_factors, model):
    # the metric factor q^2 and the ambient Christoffels share one q
    spec = immersion(("u", "v"), ("u", "v", "0.3+u*v/4"), {}, AmbientChart(model, 3))
    PointGeometry(spec, (0.2, -0.1))
    assert len(conformal_factors) == 1


@pytest.mark.parametrize(
    "name, calls", [("tension_first_principles", 2), ("bitension_first_principles", 3)]
)
def test_oracle_conformal_factor_count(conformal_factors, name, calls):
    # one q for the induced metric, and one per warped codomain Christoffel
    # call (along phi, and for the bitension at phi(p)), shared there by
    # the metric factor and the ambient Christoffels
    getattr(oracle, name)(oracle.warped_inclusion_map(_scene()), (0.3,) + POINT)
    assert len(conformal_factors) == calls


@pytest.fixture
def warp_factor_calls(monkeypatch):
    """Calls of WarpEval.power_residual, the evaluation of
    P = f f'' + (m-1) f'^2."""
    seen = {"power_residual": 0}
    residual = ambient.WarpEval.power_residual

    def counted_residual(self, m):
        seen["power_residual"] += 1
        return residual(self, m)

    monkeypatch.setattr(ambient.WarpEval, "power_residual", counted_residual)
    return seen


@pytest.mark.parametrize("warp", ["exp(t)", "(a*t+b)^(1/m)"])
def test_one_t_report_forms_the_warp_factors_once(warp_factor_calls, warp):
    # pairing forms P once for the bitension, the closed-form pairing and
    # the report (3 evaluations of P before, and 11 powers of f and f',
    # then 3, until the closed forms divided by f one factor at a time)
    params = {"a": 1.0, "b": 2.0, "m": 2} if "a" in warp else {}
    scene = warped.warped_scene(verify.sphere_slice(1.0), warp, params, (0.0, 1.0))
    warped.warped_report(scene, 0.3, POINT)
    assert warp_factor_calls == {"power_residual": 1}


@pytest.fixture
def split_calls(monkeypatch):
    """The BasePoints whose split of e tau_2(i), the one projection on
    span{dX_i} the split of tau_2(phi) reads, is formed."""
    calls = []
    split = warped.BasePoint.e_tau2_i_split

    def counted(self):
        calls.append(self)
        return split.func(self)

    counted_split = functools.cached_property(counted)
    counted_split.__set_name__(warped.BasePoint, split.attrname)
    monkeypatch.setattr(warped.BasePoint, split.attrname, counted_split)
    monkeypatch.setattr(warped, "_memo", None)
    return calls


def test_split_is_formed_when_read(split_calls):
    # a report read for its pairing, closed form, gate and residual forms no
    # tangential/normal split of tau_2(phi); reading its norms forms it once
    scene = _scene()
    rep = warped.warped_report(scene, 0.3, POINT)
    assert rep.pairing == pytest.approx(rep.pairing_closed_form)
    assert rep.pairing_closed_form_applicable and abs(rep.power_residual) > 0
    assert split_calls == []
    parts = rep.bitension
    norms = (parts.tangential_norm, parts.normal_norm)
    assert (parts.tangential_norm, parts.normal_norm) == norms
    assert len(split_calls) == 1


@pytest.mark.parametrize("sweep", [False, True], ids=["per t", "sweep"])
def test_split_is_formed_once_per_base_point(split_calls, sweep):
    # five t at one point read the split of their BasePoint, formed by the
    # first of them, as one report per t or as one sweep
    scene = _scene()
    ts = (0.1, 0.15, 0.2, 0.25, 0.3)
    reports = [warped.warped_report(scene, t, POINT) for t in ([np.array(ts)] if sweep else ts)]
    assert split_calls == []
    norms = [(rep.bitension.tangential_norm, rep.bitension.normal_norm) for rep in reports]
    assert np.all(np.isfinite(norms))
    assert len(split_calls) == 1


# the bench's warps: (source, params, contractions, jpow calls) of a one-t
# report at a base point already built
ONE_T_WARPS = [
    ("exp(t)", {}, 1, 0),  # one Horner step of exp's order-2 series
    # sqrt checks its sign and runs jpow's power series, not jpow (1 before)
    ("sqrt(t+2)", {}, 1, 0),
    ("2+cos(t)", {}, 1, 0),
    # 1/m is folded at load: jpow of the order-2 jet a t + b, no reciprocal
    ("(a*t+b)^(1/m)", {"a": 1.0, "b": 2.0, "m": 2}, 1, 1),
]


@pytest.mark.parametrize(
    "warp, params, contract, jpow", ONE_T_WARPS, ids=[w[0] for w in ONE_T_WARPS]
)
def test_one_t_report_counts(counts, monkeypatch, warp, params, contract, jpow):
    orders = []
    init = jet.Jet.__init__

    def recorded_init(self, n_vars, order, coeffs):
        orders.append(order)
        init(self, n_vars, order, coeffs)

    # the base point's tau_2(i) and gate, formed when first read, are
    # formed by a report at another t
    scene = warped.warped_scene(verify.sphere_slice(1.0), warp, params, (0.0, 1.0))
    warped.warped_report(scene, 0.5, POINT)
    counts.update(dict.fromkeys(counts, 0))
    monkeypatch.setattr(jet.Jet, "__init__", recorded_init)
    warped.warped_report(scene, 0.3, POINT)
    assert (counts["contract"], counts["jpow"]) == (contract, jpow)
    assert counts["builds"] == counts["mul"] == 0
    assert 0 not in orders  # no constant of the warp is formed as an order-0 jet


@pytest.fixture
def curvature_calls(monkeypatch):
    calls = []
    curvature = oracle.spaceform_curvature

    def counted(*args):
        calls.append(args)
        return curvature(*args)

    monkeypatch.setattr(oracle, "spaceform_curvature", counted)
    monkeypatch.setattr(warped, "_memo", None)
    return calls


@pytest.mark.parametrize("m", [2, 3])
def test_one_curvature_call_per_base_point(curvature_calls, m):
    # tau_2(i) takes the m^2 tangent pairs of its curvature trace in one
    # call (m^2 calls before); a BasePoint forms it when it is first read
    point = (0.3, -0.2, 0.1)[:m]
    base = warped.base_point(verify.sphere_slice(1.0, m), point)
    assert curvature_calls == []
    assert base.e_tau2_i.shape == (m + 1,)
    assert len(curvature_calls) == 1
    _, _, y, z, _ = curvature_calls[0]
    assert (y.shape, z.shape) == ((m, 1, m + 1), (1, m, m + 1))


@pytest.fixture
def errstate_entries(monkeypatch):
    """The number of times warpgeo's own code enters np.errstate (numpy.linalg
    enters its own inside inv and cholesky, which is numpy's, not counted)."""
    seen = [0]
    enter = np.errstate.__enter__

    def counted(self):
        seen[0] += sys._getframe(1).f_globals.get("__name__", "").startswith("warpgeo")
        return enter(self)

    monkeypatch.setattr(np.errstate, "__enter__", counted)
    monkeypatch.setattr(warped, "_memo", None)
    return seen


def test_one_t_report_enters_the_error_state_once(errstate_entries):
    # the warp evaluation, the pairing and its parts are nested in the report
    scene = _scene()
    warped.base_point(scene.immersion, POINT)
    errstate_entries[0] = 0
    warped.warped_report(scene, 0.3, POINT)
    assert errstate_entries[0] == 1


def test_base_point_build_enters_the_error_state_once(errstate_entries):
    # the geometry, the bitension of the unwarped inclusion and the
    # classify gate are nested in the build
    warped.base_point(verify.sphere_slice(1.0), POINT)
    assert errstate_entries[0] == 1


def test_grid_classify_enters_the_error_state_once(errstate_entries):
    grid = [(0.2 + 0.1 * i, -0.3 + 0.2 * j) for i in range(4) for j in range(4)]
    biharmonic.classify(verify.cone(1.0), grid, 1e-7)
    assert errstate_entries[0] == 1


def test_verify_pass_enters_the_error_state_once(errstate_entries):
    verify.run_checks()
    assert errstate_entries[0] == 1


@pytest.fixture
def chart_calls(monkeypatch):
    """Calls of warped.to_chart and formations of WarpedReport.columns."""
    seen = {"to_chart": 0, "columns": 0}
    to_chart, columns = warped.to_chart, warped.WarpedReport.columns

    def counted_to_chart(*args):
        seen["to_chart"] += 1
        return to_chart(*args)

    def counted_columns(self):
        seen["columns"] += 1
        return columns.func(self)

    counted = functools.cached_property(counted_columns)
    counted.__set_name__(warped.WarpedReport, columns.attrname)
    monkeypatch.setattr(warped, "to_chart", counted_to_chart)
    monkeypatch.setattr(warped.WarpedReport, columns.attrname, counted)
    return seen


def test_cli_warp_converts_each_vector_once(chart_calls, tmp_path):
    # the table, the CSV, the finiteness check and the JSON all read the
    # report's one table: tau and tau_2 are each converted to chart
    # components once (twice each while the CLI converted them itself)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "ambient": {"model": "sphere", "dim": 3},
        "immersion": {"variables": ["u", "v"], "components": ["u", "v", "1"]},
        "warp": {"expr": "exp(t)", "interval": [-0.5, 1.0]},
    }))
    argv = ["warp", str(scene), "--t", "0:0.2:5", "--point", "0.3,-0.2",
            "--json", str(tmp_path / "w.json"), "--csv", str(tmp_path / "w.csv")]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    assert chart_calls == {"to_chart": 2, "columns": 1}


def test_pairing_request_forms_no_table(chart_calls):
    # the bench's warp request: five one-t reports read for their pairing,
    # closed form, gate and residual alone
    scene = _scene()
    for t in (0.1, 0.15, 0.2, 0.25, 0.3):
        rep = warped.warped_report(scene, t, POINT)
        assert rep.pairing == pytest.approx(rep.pairing_closed_form)
        assert rep.pairing_closed_form_applicable and abs(rep.power_residual) > 0
    assert chart_calls == {"to_chart": 0, "columns": 0}
