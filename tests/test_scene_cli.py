import json
import math

import pytest

from warpgeo import cli
from warpgeo.errors import SceneError
from warpgeo.scene import load_scene, scene_from_dict

CONE_SCENE = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {
        "variables": ["u", "v"],
        "components": ["r*u*cos(v)", "r*u*sin(v)", "u"],
        "params": {"r": 1.0},
    },
    "analysis": {"points": [[1.0, 1.5707963267948966]], "tolerance": 1e-7},
}

SLICE_SCENE = {
    "ambient": {"model": "sphere", "dim": 3},
    "immersion": {
        "variables": ["u", "v"],
        "components": ["u", "v", "r"],
        "params": {"r": 1.0},
    },
    "warp": {"expr": "exp(t)", "interval": [-0.5, 1.0], "params": {}},
    "analysis": {"points": [[0.3, -0.2]], "tolerance": 1e-7},
}


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


class TestSceneLoading:
    def test_cone_scene(self, tmp_path):
        scene = load_scene(write_scene(tmp_path, CONE_SCENE))
        assert scene.immersion.m == 2
        assert scene.points == ((1.0, 1.5707963267948966),)
        assert scene.tolerance == 1e-7
        with pytest.raises(SceneError):
            scene.require_warp()

    def test_warp_block(self, tmp_path):
        scene = load_scene(write_scene(tmp_path, SLICE_SCENE))
        ws = scene.require_warp()
        assert ws.interval == (-0.5, 1.0)
        assert ws.warp_at(0.0).f == pytest.approx(1.0)

    def test_component_count_error(self):
        bad = json.loads(json.dumps(CONE_SCENE))
        bad["immersion"]["components"] = ["u", "v"]
        with pytest.raises(SceneError, match="component count"):
            scene_from_dict(bad)

    def test_missing_ambient(self):
        with pytest.raises(SceneError, match="ambient"):
            scene_from_dict({"immersion": CONE_SCENE["immersion"]})

    def test_bad_expression_reported_with_path(self):
        bad = json.loads(json.dumps(CONE_SCENE))
        bad["immersion"]["components"] = ["r*u*cos(v", "0", "u"]
        with pytest.raises(SceneError, match="immersion"):
            scene_from_dict(bad)

    def test_bad_point_arity(self):
        bad = json.loads(json.dumps(CONE_SCENE))
        bad["analysis"]["points"] = [[1.0]]
        with pytest.raises(SceneError, match="coordinates"):
            scene_from_dict(bad)

    def test_bad_warp_interval(self):
        bad = json.loads(json.dumps(SLICE_SCENE))
        bad["warp"]["interval"] = [0.0]
        with pytest.raises(SceneError, match="interval"):
            scene_from_dict(bad)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SceneError, match="malformed"):
            load_scene(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneError, match="cannot read"):
            load_scene(str(tmp_path / "nope.json"))


class TestCli:
    def test_analyze_cone(self, tmp_path, capsys):
        path = write_scene(tmp_path, CONE_SCENE)
        out_json = tmp_path / "report.json"
        code = run_cli(["analyze", path, "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.176776695" in out
        payload = json.loads(out_json.read_text())
        rep = payload["reports"][0]
        assert rep["lambda"] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
        assert rep["lapLambda"] == pytest.approx(0.17677669529663687)
        assert rep["normA2"] == pytest.approx(0.5)
        assert rep["normalResidual"] == pytest.approx(0.0, abs=1e-10)

    def test_classify_slice(self, tmp_path, capsys):
        path = write_scene(tmp_path, SLICE_SCENE)
        code = run_cli(["classify", path, "--points", "0,0;0.3,-0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "biharmonic" in out
        assert "True" in out

    def test_scan_cone(self, tmp_path, capsys):
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(
            ["scan", path, "--param", "r", "--range", "0.5:2", "--samples", "31"]
        )
        out = capsys.readouterr().out
        assert code == 0
        roots_line = next(l for l in out.splitlines() if l.startswith("roots:"))
        assert float(roots_line.split()[1]) == pytest.approx(1.0, abs=1e-6)

    def test_warp_pairing_column(self, tmp_path, capsys):
        path = write_scene(tmp_path, SLICE_SCENE)
        csv_path = tmp_path / "warp.csv"
        code = run_cli(
            [
                "warp",
                path,
                "--t",
                "0:0.5:2",
                "--point",
                "0.3,-0.2",
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [l.split() for l in out.splitlines()[1:]]
        pairings = [float(r[2]) for r in rows]
        assert pairings[0] == pytest.approx(16.0, abs=1e-6)
        assert pairings[1] == pytest.approx(16.0 * math.exp(-1.0), abs=1e-6)
        assert csv_path.read_text().startswith("t,f,pairing")

    def test_verify_subset(self, capsys):
        code = run_cli(["verify", "--filter", "pairing direct"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out

    def test_verify_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["verify", "--filter", "lambda", "--json", str(a)]) == 0
        assert run_cli(["verify", "--filter", "lambda", "--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_exit_code_config_error(self, tmp_path, capsys):
        code = run_cli(["analyze", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_exit_code_bad_points(self, tmp_path, capsys):
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(["analyze", path, "--points", "1.0"])
        capsys.readouterr()
        assert code == 2

    def test_exit_code_domain_error(self, tmp_path, capsys):
        # cone axis u = 0 degenerates; the batch continues and exits 3
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(["analyze", path, "--points", "0,1;1,1"])
        out = capsys.readouterr().out
        assert code == 3
        assert "error" in out  # failed row is still printed

    def test_warp_requires_warp_block(self, tmp_path, capsys):
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(["warp", path, "--t", "0:1:2", "--point", "1,1"])
        capsys.readouterr()
        assert code == 2

    def test_grid_points(self, tmp_path, capsys):
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(["classify", path, "--grid", "0.5:2:3,0:1:2"])
        capsys.readouterr()
        assert code == 0

    def test_verify_json(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        code = run_cli(["verify", "--json", str(path)])
        capsys.readouterr()
        assert code == 0
        rows = json.loads(path.read_text())["checks"]
        assert len(rows) == 126
        assert all(row["pass"] is True for row in rows)


def _with(scene, block, **changes):
    out = json.loads(json.dumps(scene))
    out[block].update(changes)
    return out


# (scene, argv); {scene} is the scene file and {tmp} a scratch directory.
BAD_INPUT = {
    "point not numeric": (CONE_SCENE, ["analyze", "{scene}", "--points", "a,b"]),
    "grid axis lo:hi": (CONE_SCENE, ["classify", "{scene}", "--grid", "0.5:2"]),
    "grid count": (CONE_SCENE, ["classify", "{scene}", "--grid", "0.5:2:-1,0:1:2"]),
    "scan range": (CONE_SCENE, ["scan", "{scene}", "--param", "r", "--range", "0.5"]),
    "warp t lo:hi": (SLICE_SCENE, ["warp", "{scene}", "--t", "0:1", "--point", "0.3,-0.2"]),
    "param not numeric": (
        _with(CONE_SCENE, "immersion", params={"r": "abc"}),
        ["analyze", "{scene}"],
    ),
    "warp interval not numeric": (
        _with(SLICE_SCENE, "warp", interval=["a", 1.0]),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    "scene point not numeric": (
        _with(CONE_SCENE, "analysis", points=[["a", 1.0]]),
        ["analyze", "{scene}"],
    ),
    "param NaN": (_with(CONE_SCENE, "immersion", params={"r": math.nan}), ["classify", "{scene}"]),
    "param Infinity": (_with(CONE_SCENE, "immersion", params={"r": math.inf}), ["analyze", "{scene}"]),
    "param beyond float range": (
        _with(CONE_SCENE, "immersion", params={"r": 10**400}),
        ["analyze", "{scene}"],
    ),
    "scene point NaN": (_with(CONE_SCENE, "analysis", points=[[math.nan, 1.0]]), ["analyze", "{scene}"]),
    "tolerance NaN": (_with(CONE_SCENE, "analysis", tolerance=math.nan), ["classify", "{scene}"]),
    "tol NaN": (CONE_SCENE, ["classify", "{scene}", "--points", "1,0.7", "--tol", "nan"]),
    "warp beyond float range": (
        _with(SLICE_SCENE, "warp", interval=[0.0, 1000.0]),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    "warp exponent NaN": (
        _with(SLICE_SCENE, "warp", expr="1+2^(t*1e308*10-t*1e308*10)", interval=[0.5, 1.0]),
        ["classify", "{scene}", "--points", "0.3,-0.2"],
    ),
    "warp infinite inside interval": (
        _with(SLICE_SCENE, "warp", expr="t*1e200*t*1e200", interval=[1.0, 2.0]),
        ["warp", "{scene}", "--t", "1:2:2", "--point", "0.3,-0.2"],
    ),
    "point NaN": (CONE_SCENE, ["analyze", "{scene}", "--points", "nan,1"]),
    "grid inf": (CONE_SCENE, ["classify", "{scene}", "--grid", "0.5:inf:3,0:1:2"]),
    "scan probe inf": (
        CONE_SCENE,
        ["scan", "{scene}", "--param", "r", "--range", "0.5:2", "--probe", "1,-inf"],
    ),
    "warp t NaN": (SLICE_SCENE, ["warp", "{scene}", "--t", "0:nan:2", "--point", "0.3,-0.2"]),
    "unwritable json": (CONE_SCENE, ["analyze", "{scene}", "--json", "{tmp}/no/r.json"]),
    "unwritable csv": (
        SLICE_SCENE,
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2", "--csv", "{tmp}/no/w.csv"],
    ),
}


@pytest.mark.parametrize("data, argv", BAD_INPUT.values(), ids=list(BAD_INPUT))
def test_bad_input_exits_2_with_message(tmp_path, capsys, data, argv):
    scene = write_scene(tmp_path, data)
    code = run_cli([arg.format(scene=scene, tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_classify_beyond_float_range_exits_3(tmp_path, capsys):
    code = run_cli(["classify", write_scene(tmp_path, CONE_SCENE), "--points", "1e80,0.7"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


def test_classify_nan_exponent_exits_3(tmp_path, capsys):
    # 1e308*10 overflows in a jet product, which numpy reports as it happens;
    # the NaN exponent it leads to is then a domain error.
    scene = _with(CONE_SCENE, "immersion", components=[
        "r*u*cos(v)", "r*u*sin(v)", "u^(1e308*10-1e308*10)"
    ])
    with pytest.warns(RuntimeWarning) as seen:
        code = run_cli(["classify", write_scene(tmp_path, scene), "--points", "0.5,0.2"])
    err = capsys.readouterr().err
    assert "overflow encountered in multiply" in str(seen[0].message)
    assert code == 3
    assert err.startswith("error: ") and "non-finite exponent" in err
    assert "Traceback" not in err


def test_scan_lists_overflow_as_failure(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    argv = ["scan", write_scene(tmp_path, CONE_SCENE), "--param", "r"]
    argv += ["--range", "0.5:1e22", "--samples", "2", "--json", str(out_json)]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 0
    [(value, message)] = json.loads(out_json.read_text())["failures"]
    assert value == 1e22 and "float range" in message
    assert "Traceback" not in err
