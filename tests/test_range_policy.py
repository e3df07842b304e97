"""Out-of-range input at every public entry point gives the documented
error or exit code, never a numpy warning or a traceback.

    python3 -m pytest tests/test_range_policy.py

The suite turns every RuntimeWarning into an error (pyproject.toml), so a
numpy overflow or invalid warning anywhere below an entry point fails the
case it is met in.  Each entry point runs under `errors.range_policy`, and
the range is decided by the value checks.
"""

import json
import re

import numpy as np
import pytest

from warpgeo import biharmonic, cli, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.errors import EvalDomainError
from warpgeo.immersion import PointGeometry, immersion

# a constant that reaches 0.0 only through an infinity
FOUND_WARP = "exp(t)+exp(-(1e308*1e308))"
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


@pytest.mark.parametrize("scene, argv, code, err", [
    (STEEP, ["analyze", "{scene}", "--points", "0,0.3"], 3, "error: 1 point(s) failed\n"),
    (STEEP, ["classify", "{scene}", "--points", "0,0.3"], 3, f"error: {STEEP_MESSAGE}\n"),
    (STEEP, ["scan", "{scene}", "--param", "k", "--range", "1e100:1e120", "--samples", "3",
             "--probe", "0,0.3"], 0,
     f"failed sample k=5e+119: {STEEP_MESSAGE}\nfailed sample k=1e+120: {STEEP_MESSAGE}\n"),
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
    (None, ["verify", "--filter", "f=exp(t)"], 0, ""),
], ids=["analyze", "classify", "scan", "warp at load", "warp pairing", "warp finite pairing",
        "warp sweep", "verify"])
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
