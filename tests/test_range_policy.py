"""Out-of-range input at every public entry point gives the documented
error or exit code, never a numpy warning or a traceback.

    python3 -m pytest tests/test_range_policy.py

The suite turns every RuntimeWarning into an error (pyproject.toml), so a
numpy overflow or invalid warning anywhere below an entry point fails the
case it is met in.  Each entry point runs under `errors.range_policy`, and
the range is decided by the value checks.
"""

import json
import math
import re
import sys

import numpy as np
import pytest

from warpgeo import biharmonic, cli, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.errors import EvalDomainError
from warpgeo.immersion import PointGeometry, immersion

# constants that reach 0.0 only through an infinity
FOUND_WARP = "exp(t)+exp(-(1e308*1e308))"
FOUND_COMPONENT = "u*u+exp(-(1e308*1e308))"
FOUND_GRAPH = immersion(
    ("u", "v"), ("u", "v", FOUND_COMPONENT), {}, AmbientChart("euclidean", 3)
)
FOUND_MESSAGE = "constant (1e+308*1e+308) leaves the float range (inf)"
STEEP_GRAPH = immersion(
    ("u", "v"), ("u", "v", "1e110*u*u+v*v"), {}, AmbientChart("euclidean", 3)
)
STEEP_MESSAGE = "lapLambda at (0, 0.3) leaves the float range (nan)"
POLE_GRAPH = immersion(
    ("u", "v"), ("u", "v", "u*u/(r-1)+v*v"), {"r": 0.5}, AmbientChart("euclidean", 3)
)


def test_warp_constant_that_overflows_on_the_way_is_refused_at_load():
    with pytest.raises(EvalDomainError) as err:
        warped.warped_scene(verify.sphere_slice(1.0), FOUND_WARP, {}, (-0.5, 1.0))
    assert str(err.value) == "constant (1e+308*1e+308) leaves the float range (inf)"
    assert FOUND_WARP[slice(*err.value.span)] == "1e308*1e308"


def test_overflowing_graph_through_point_geometry_and_classify():
    # the geometry builds; its Laplacian of lambda is NaN, and the residuals
    # and classify refuse it by value
    pg = PointGeometry(STEEP_GRAPH, (0.0, 0.3))
    assert not np.isfinite(pg.lap_lam)
    with pytest.raises(EvalDomainError, match=f"^{re.escape(STEEP_MESSAGE)}$"):
        biharmonic.normal_residual(pg)
    with pytest.raises(EvalDomainError, match="leaves the float range"):
        biharmonic.classify(STEEP_GRAPH, [(0.0, 0.3)], 1e-7)


def _graph(*components):
    return immersion(("u", "v"), components, {}, AmbientChart("euclidean", 3))


def test_far_plane_is_reported():
    # 1/|w| at |w| = 1e140: 1/|w|^5 underflows, but |w| is constant, so
    # the series' value is all it gives (1/x was refused once x^5 overflowed)
    got = biharmonic.classify(_graph("1e70*u", "1e70*v", "0"), [(0.3, 0.2)], 1e-7)
    assert got == biharmonic.classify(_graph("u", "v", "0"), [(0.3, 0.2)], 1e-7)


# the order-4 term of each series underflows, and its product with
# (1e100 du)^4, (1e70 du)^4 or (1e200 du)^4 is a float: dropping it gave
# wrong residuals (exit 0 for the sqrt graph: 5.64 for 13.16).  exp(-750)
# underflows whole: the exp graph read the v*v part alone (normal residual
# 6.56, where 1e-26*exp(1e10*(u-0.3))+v*v, the same surface, reads 9.28e13)
@pytest.mark.parametrize("component, message", [
    ("log(1e100*u)+v*v", "log series at 3e+99 leaves the float range"),
    ("1/(1e70*u)+v*v", "power -1 series at 3e+69 leaves the float range"),
    ("sqrt(1e200*u)*1e-100+v*v", "power 0.5 series at 3e+199 leaves the float range"),
    ("1e300*exp(1e10*u-3000000750)+v*v", "exp series at -750 leaves the float range"),
], ids=["log", "reciprocal", "sqrt", "exp"])
def test_series_that_would_drop_a_term_is_refused(component, message):
    with pytest.raises(EvalDomainError, match=f"^{re.escape(message)}$"):
        biharmonic.classify(_graph("u", "v", component), [(0.3, 0.2)], 1e-7)


def test_constant_that_underflows_to_zero_is_reported():
    # exp(-800) is 0 with no nilpotent part, so no term of its series is
    # dropped: the graph is v*v's
    got = biharmonic.classify(_graph("u", "v", "exp(-800)*u+v*v"), [(0.3, 0.2)], 1e-7)
    assert got == biharmonic.classify(_graph("u", "v", "v*v"), [(0.3, 0.2)], 1e-7)


def test_tangential_residual_whose_square_overflows_is_reported():
    # about 1.6e154: its square leaves the float range, its h-length does not
    rec = biharmonic.classify(_graph("u", "v", "1e77*u*u+v*v*v"), [(0.0, 0.3)], 1e-7)
    assert math.sqrt(sys.float_info.max) < rec.max_tangential < math.inf
    assert rec.max_tangential <= 1e-7 * rec.scale < rec.max_normal
    assert not rec.harmonic and not rec.biharmonic and rec.tangentially_biharmonic


# f = 2 + 1e400 t^2 loads, as its order-0 samples are about 2, but its
# order-2 jet at any t holds f'' = inf
OVERFLOWING_WARP = "2+(1e200*t)*(1e200*t)"
OVERFLOWING_MESSAGE = "warping function and its derivatives must be finite, got f=2, f'=0, f''=inf"


def test_overflowing_warp_over_a_sweep():
    scene = warped.warped_scene(verify.sphere_slice(1.0), OVERFLOWING_WARP, {}, (0.0, 1e-250))
    ts = np.linspace(0.0, 1e-250, 5)
    with pytest.raises(EvalDomainError, match=f"^{re.escape(OVERFLOWING_MESSAGE)}$"):
        scene.warp_at(ts)
    with pytest.raises(EvalDomainError, match=f"^{re.escape(OVERFLOWING_MESSAGE)}$"):
        warped.warped_report(scene, ts, (0.3, -0.2))


def test_pairing_near_the_float_range_is_reported_in_process():
    # about 8.0e300, from f = 1e-70 and f' = 1e10: in chart components
    # tau_2 . tau overflowed before it was scaled by f^2 e^2, and the
    # pairing was refused; frame components stay in range
    scene = warped.warped_scene(verify.sphere_slice(1.0), "1e-70+1e10*t", {}, (0.0, 1e-80))
    for t in (0.0, np.linspace(0.0, 1e-80, 3)):
        rep = warped.warped_report(scene, t, (0.3, -0.2))
        closed = np.asarray(rep.pairing_closed_form)
        assert np.all(abs(rep.pairing - closed) <= 1e-15 * abs(closed))
        assert np.ravel(closed)[0] == pytest.approx(8.0e300, rel=1e-12)


def test_overflowing_pairing_is_refused_in_process():
    # f = 1e-72 and f' = 1e12: the pairing, about 8e312, leaves the float
    # range, at one t and over a sweep alike
    scene = warped.warped_scene(verify.sphere_slice(1.0), "1e-72+1e12*t", {}, (0.0, 1e-82))
    for t in (0.0, np.linspace(0.0, 1e-82, 3)):
        with pytest.raises(EvalDomainError, match="^pairing is not finite at t = 0$"):
            warped.warped_report(scene, t, (0.3, -0.2))


@pytest.mark.parametrize(
    "interval, ts", [((-200.0, 0.0), [-190.0, -200.0]), ((0.0, 200.0), [190.0, 200.0])],
    ids=["t<0", "t>0"],
)
def test_exp_warp_past_the_f4_range_is_reported_in_process(interval, ts):
    # f^4 = e^{4t} is past the float range at |t| = 190 and 200, the
    # pairing 16 e^{-2t} over the r = 1 slice is not: both pairings are
    # within 1e-13 of it (measured 4.4e-16), at one t and as a sweep, whose
    # rows equal the one-t rows; each t was refused while WarpEval formed f^4
    scene = warped.warped_scene(verify.sphere_slice(1.0), "exp(t)", {}, interval)
    sweep = warped.warped_report(scene, np.array(ts), (0.3, -0.2))
    for i, t in enumerate(ts):
        one = warped.warped_report(scene, t, (0.3, -0.2))
        want = 16.0 * np.exp(-2.0 * t)
        assert abs(one.pairing - want) <= 1e-13 * want
        assert abs(one.pairing_closed_form - want) <= 1e-13 * want
        assert one.to_dicts() == [sweep.to_dicts()[i]]


def test_pairing_of_a_vanishing_f_is_refused_in_process():
    # f = t = 1e-150: the pairing, 8 / t^4, leaves the float range
    scene = warped.warped_scene(verify.sphere_slice(1.0), "t", {}, (1e-300, 1.0))
    for t in (1e-150, np.array([1e-150, 1.0])):
        with pytest.raises(EvalDomainError, match="^pairing is not finite at t = 1e-150$"):
            warped.warped_report(scene, t, (0.3, -0.2))


def test_minimal_base_under_a_vanishing_f_is_reported_in_process():
    # over a plane, H = 0 and tau_2(i) = 0, so the pairing is 0 at every t:
    # |H|^2 and eH multiply f'/f and P/f before the last factors of f divide
    # them, so no 0 * inf makes a NaN while P/f is finite, down to the
    # interval's end (it was refused from 1e-155 on while P/f^2 formed first)
    plane = immersion(("u", "v"), ("u", "v", "0"), {}, AmbientChart("euclidean", 3))
    scene = warped.warped_scene(plane, "t", {}, (1e-300, 1.0))
    ts = [1e-300, 1e-200, 1e-155, 1e-150, 1e-100, 1.0]
    for t in (np.array(ts), *ts[:3]):
        rep = warped.warped_report(scene, t, (0.3, -0.2))
        assert np.all(rep.pairing == 0.0) and np.all(rep.pairing_closed_form == 0.0)


def test_immersion_constant_that_overflows_on_the_way_is_refused():
    # the component's constant is 0.0 only through an infinity: the
    # evaluator refuses it where it forms it, as it does in a warp
    with pytest.raises(EvalDomainError) as err:
        PointGeometry(FOUND_GRAPH, (0.3, 0.2))
    assert str(err.value) == FOUND_MESSAGE
    assert FOUND_COMPONENT[slice(*err.value.span)] == "1e308*1e308"


def test_scan_across_the_pole_reports_it():
    res = biharmonic.parameter_scan(POLE_GRAPH, "r", 0.45, 1.6, 20, (0.3, 0.2))
    assert res.roots == ()
    [(value, message)] = res.failures
    assert value == pytest.approx(1.0, abs=1e-9) and message.startswith("pole: ")


SLICE = {
    "ambient": {"model": "sphere", "dim": 3},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", "r"], "params": {"r": 1.0}},
}
STEEP = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", "k*u*u+v*v"],
                  "params": {"k": 1e110}},
}
FOUND = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", FOUND_COMPONENT]},
}

# u*1e308*1e308 is not a constant: its value is infinite at every point
INFINITE_DIVISOR = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", "1/(u*1e308*1e308)"]},
}

# exp(1e10 u - 3000000750) underflows to 0 at u = 0.3, and its nilpotent
# part 1e10 du does not vanish: the series drops every term
UNDERFLOWING_EXP = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {"variables": ["u", "v"],
                  "components": ["u", "v", "1e300*exp(1e10*u-3000000750)+v*v"]},
}


@pytest.mark.parametrize("scene, argv, code, err", [
    (STEEP, ["analyze", "{scene}", "--points", "0,0.3"], 3, "error: 1 point(s) failed\n"),
    (STEEP, ["classify", "{scene}", "--points", "0,0.3"], 3, f"error: {STEEP_MESSAGE}\n"),
    (STEEP, ["scan", "{scene}", "--param", "k", "--range", "1e100:1e120", "--samples", "3",
             "--probe", "0,0.3"], 0,
     f"failed sample k=5e+119: {STEEP_MESSAGE}\nfailed sample k=1e+120: {STEEP_MESSAGE}\n"),
    (FOUND, ["classify", "{scene}", "--points", "0.3,0.2"], 3, f"error: {FOUND_MESSAGE}\n"),
    (SLICE | {"warp": {"expr": FOUND_WARP, "interval": [-0.5, 1.0]}},
     ["warp", "{scene}", "--t=0:1:3", "--point", "0.3,-0.2"], 2,
     "error: {scene}.warp: constant (1e+308*1e+308) leaves the float range (inf)\n"),
    (SLICE | {"warp": {"expr": "1e-72+1e12*t", "interval": [0.0, 1e-82]}},
     ["warp", "{scene}", "--t=0:1e-82:3", "--point", "0.3,-0.2"], 3,
     "error: pairing is not finite at t = 0\n"),
    (SLICE | {"warp": {"expr": "1e-70+1e10*t", "interval": [0.0, 1e-80]}},
     ["warp", "{scene}", "--t=0:1e-80:3", "--point", "0.3,-0.2"], 0, ""),
    (SLICE | {"warp": {"expr": OVERFLOWING_WARP, "interval": [0.0, 1e-250]}},
     ["warp", "{scene}", "--t=0:1e-250:5", "--point", "0.3,-0.2"], 3,
     f"error: {OVERFLOWING_MESSAGE}\n"),
    (SLICE | {"warp": {"expr": "t", "interval": [1e-300, 1.0]}},
     ["warp", "{scene}", "--t=1e-150:1:2", "--point", "0.3,-0.2"], 3,
     "error: pairing is not finite at t = 1e-150\n"),
    (INFINITE_DIVISOR, ["classify", "{scene}", "--points", "0.3,0.2"], 3,
     "error: power -1 series at inf leaves the float range\n"),
    (UNDERFLOWING_EXP, ["classify", "{scene}", "--points", "0.3,0.2"], 3,
     "error: exp series at -750 leaves the float range\n"),
    (None, ["verify", "--filter", "f=exp(t)"], 0, ""),
], ids=["analyze", "classify", "scan", "classify constant", "warp at load", "warp pairing",
        "warp finite pairing", "warp sweep", "warp vanishing f", "infinite divisor",
        "underflowing exp", "verify"])
def test_cli_subcommand_out_of_range(tmp_path, capsys, scene, argv, code, err):
    path = tmp_path / "scene.json"
    if scene is not None:
        path.write_text(json.dumps(scene))
    argv = [a.format(scene=path) for a in argv]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == code
    assert captured.err == err.format(scene=path)
    assert "Traceback" not in captured.out + captured.err


def _numbers(x):
    if isinstance(x, dict):
        return [v for value in x.values() for v in _numbers(value)]
    if isinstance(x, list):
        return [v for value in x for v in _numbers(value)]
    return [x] if isinstance(x, float | int) and not isinstance(x, bool) else []


@pytest.mark.parametrize("tgrid", ["190:200:2", "0:200:3"])
def test_cli_exp_warp_past_the_f4_range_exits_0(tmp_path, capsys, tgrid):
    # it exited 3 while WarpEval refused f^4 past the float range
    path, out = tmp_path / "scene.json", tmp_path / "warp.json"
    path.write_text(json.dumps(SLICE | {"warp": {"expr": "exp(t)", "interval": [0.0, 200.0]}}))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["warp", str(path), f"--t={tgrid}", "--point", "0.3,-0.2", "--json", str(out)])
    assert exit_.value.code == 0
    assert capsys.readouterr().err == ""
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == int(tgrid.rsplit(":", 1)[1])
    assert all(np.isfinite(_numbers(reports)))
    for rep in reports:
        want = 16.0 * np.exp(-2.0 * rep["t"])
        assert abs(rep["pairing"] - want) <= 1e-13 * want
        assert abs(rep["pairing_closed_form"] - want) <= 1e-13 * want


def test_verify_check_that_is_not_finite_is_a_fail_row(tmp_path, monkeypatch, capsys):
    # the table shows it among the other checks and exits 1; only the JSON
    # writer refuses it, before its file is opened
    checks = [verify.Check("finite", 1.0, 1.0, 1e-9), verify.Check("nan", 1.0, np.nan, 1e-9)]
    monkeypatch.setattr(verify, "run_checks", lambda name_filter=None: checks)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify"])
    out = capsys.readouterr().out.splitlines()
    assert exit_.value.code == 1
    assert out[1].split() == ["finite", "1", "1", "1e-09", "pass"]
    assert out[2].split() == ["nan", "1", "nan", "1e-09", "FAIL"]
    assert out[3] == "1/2 checks passed"
    report = tmp_path / "verify.json"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "--json", str(report)])
    assert exit_.value.code == 3
    assert capsys.readouterr().err == f"error: {report}: the report holds a non-finite number\n"
    assert not report.exists()
