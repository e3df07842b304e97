import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import warpgeo
from warpgeo import biharmonic, cli
from warpgeo.errors import EvalDomainError, SceneError, UsageError
from warpgeo.expr import parse, pretty
from warpgeo.immersion import PointGeometry
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

# S^1(a) x S^2(sqrt(1-a^2)) in S^4 in the stereographic chart: proper
# biharmonic at a = 1/sqrt 2, minimal at a = 1/sqrt 3
_TORUS_D = "(1+sqrt(1-a^2)*sin(q))"
TORUS_SCENE = {
    "ambient": {"model": "sphere", "dim": 4},
    "immersion": {
        "variables": ["p", "q", "s"],
        "components": [f"a*cos(p)/{_TORUS_D}", f"a*sin(p)/{_TORUS_D}",
                       f"sqrt(1-a^2)*cos(q)*cos(s)/{_TORUS_D}",
                       f"sqrt(1-a^2)*cos(q)*sin(s)/{_TORUS_D}"],
        "params": {"a": 0.7},
    },
}

CODIM2_SCENE = {
    "ambient": {"model": "sphere", "dim": 4},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", "0.1", "0.2"]},
}


def write_scene(tmp_path, data, name="scene.json"):
    """A scene file of `data`: JSON of a dict, or bytes written as they are."""
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
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

    @pytest.mark.parametrize("component", [1, None, ["r"]])
    def test_non_string_component_names_its_index(self, component):
        bad = _with(CONE_SCENE, "immersion", components=["u", "v", component])
        with pytest.raises(SceneError, match="component 2 must be a string"):
            scene_from_dict(bad)

    def test_dimension_must_be_an_integer_not_a_boolean(self):
        bad = _with(CONE_SCENE, "ambient", model="sphere", dim=True)
        with pytest.raises(SceneError, match="'dim' must be int"):
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

    def test_analyze_row_is_the_geometry(self, tmp_path):
        # every key of a row, each equal to the field of the point's own
        # PointGeometry (a batch equals its points one by one, and JSON
        # round-trips floats)
        path = write_scene(tmp_path, CONE_SCENE)
        out_json = tmp_path / "report.json"
        assert run_cli(["analyze", path, "--points", "1,0.7", "--json", str(out_json)]) == 0
        (row,) = json.loads(out_json.read_text())["reports"]
        pg = PointGeometry(load_scene(path).immersion, (1.0, 0.7))
        assert row == {
            "point": [1.0, 0.7],
            "g": pg.g_val.tolist(),
            "B": pg.B_val.tolist(),
            "H": pg.H_val.tolist(),
            "lambda": pg.lam,
            "eta": pg.eta_val.tolist(),
            "A": pg.A_frame.tolist(),
            "normA2": pg.normA2,
            "lapLambda": pg.lap_lam,
            "gradLambda": pg.grad_lam_amb.tolist(),
            "ricEtaEta": 0.0,
            "normalResidual": biharmonic.normal_residual(pg),
            "tangentialResidual": biharmonic.tangential_residual(pg)[1],
        }
        assert pg.ric_eta_eta == 0.0

    @pytest.mark.parametrize(
        "points, grid, codes, axis",
        [
            (["0.5,1", "1,0.7", "2,2.5"], None, [0, 0, 0], None),
            (["0.5,1", "0,1", "2,2.5"], None, [0, 3, 0], 1),
            (
                [",".join(map(repr, p)) for p in cli._parse_grid("0:1:8,0:1:8", 2)],
                "0:1:8,0:1:8",
                [3] * 8 + [0] * 56,
                7,
            ),
        ],
        ids=["all good", "axis point fails", "grid, axis row fails"],
    )
    def test_analyze_batch_equals_points_one_by_one(
        self, tmp_path, capsys, points, grid, codes, axis
    ):
        # batched builds; a batch that raises is halved down to the axis
        # points u = 0, each of which is an error row
        path = write_scene(tmp_path, CONE_SCENE)

        def analyze(where, name):
            out = tmp_path / name
            code = run_cli(["analyze", path, *where, "--json", str(out)])
            lines = capsys.readouterr().out.splitlines()
            return code, [line.split() for line in lines[1:]], json.loads(out.read_text())

        where = ["--grid", grid] if grid else ["--points", ";".join(points)]
        code, rows, payload = analyze(where, "all.json")
        singles = [analyze(["--points", p], f"{i}.json") for i, p in enumerate(points)]
        assert [rep["point"] for rep in payload["reports"]] == [
            [float(c) for c in p.split(",")] for p in points
        ]
        assert [c for c, _, _ in singles] == codes
        assert code == max(codes)
        assert rows == [row for _, (row,), _ in singles]
        assert payload["reports"] == [rep for _, _, s in singles for rep in s["reports"]]
        if code:
            assert payload["reports"][axis] == {
                "point": [0.0, 1.0],
                "error": "degenerate induced metric, det g = 0",
            }

    @pytest.mark.parametrize(
        "command, scene, grid, builds, code",
        [
            # the u = 0 row fails: its 8 points and the 10 parts above them
            # raise, and the 3 parts that hold the other rows are built
            ("analyze", CONE_SCENE, "0:1:8,0:1:8", 21, 3),
            # 1,100 good points: 8 parts of 128 and one of 76
            ("analyze", CONE_SCENE, "0.5:2:100,0:1:11", 9, 0),
            ("classify", CONE_SCENE, "0.5:2:100,0:1:11", 9, 0),
            # hypersurface-only quantities: refused before any build
            ("analyze", CODIM2_SCENE, "0:0.3:8,0:0.3:8", 0, 2),
            ("classify", CODIM2_SCENE, "0:0.3:8,0:0.3:8", 0, 2),
        ],
        ids=["analyze, failing row", "analyze, 1100 points", "classify, 1100 points",
             "analyze, codimension 2", "classify, codimension 2"],
    )
    def test_grid_build_count(
        self, tmp_path, capsys, monkeypatch, command, scene, grid, builds, code
    ):
        attempts = 0
        init = PointGeometry.__init__

        def counted_init(self, *args):
            nonlocal attempts
            attempts += 1
            init(self, *args)

        monkeypatch.setattr(PointGeometry, "__init__", counted_init)
        assert run_cli([command, write_scene(tmp_path, scene), "--grid", grid]) == code
        capsys.readouterr()
        assert attempts == builds

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

    def test_scan_wide_range_finds_the_root(self, tmp_path, capsys):
        # a bracket 22 decades wide still closes on the simple root r = 1
        path = write_scene(tmp_path, CONE_SCENE)
        code = run_cli(
            ["scan", path, "--param", "r", "--range", "0.5:1e22", "--samples", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        roots_line = next(l for l in out.splitlines() if l.startswith("roots:"))
        assert roots_line.split()[1:] == ["1"]
        assert "pole" not in out

    def test_scan_clifford_torus(self, tmp_path, capsys):
        # one simple root at a = 1/sqrt 2 (measured within 4.3e-11); the
        # range leaves out the double root at a = 1/sqrt 3
        out = tmp_path / "scan.json"
        argv = ["scan", write_scene(tmp_path, TORUS_SCENE), "--param", "a", "--range",
                "0.62:0.8", "--samples", "10", "--probe", "0.3,0.2,0.1", "--json", str(out)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        result = json.loads(out.read_text())
        assert result["failures"] == []
        [root] = result["roots"]
        assert abs(root - 1.0 / math.sqrt(2.0)) <= 1e-9

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

    @pytest.mark.parametrize(
        "scene, point, n",
        [
            ({**CODIM2_SCENE, "warp": SLICE_SCENE["warp"]}, "0.1,0.2", 4),
            ({"ambient": {"model": "euclidean", "dim": 3},
              "immersion": {"variables": ["u"], "components": ["cos(u)", "sin(u)", "0.5*u"]},
              "warp": {"expr": "2+cos(t)", "interval": [0.0, 1.0]}}, "0.4", 3),
        ],
        ids=["codimension 2", "curve"],
    )
    def test_warp_off_hypersurfaces(self, tmp_path, capsys, scene, point, n):
        # the warped closed forms hold at any codimension
        out_json, out_csv = tmp_path / "warp.json", tmp_path / "warp.csv"
        argv = ["warp", write_scene(tmp_path, scene), "--t", "0:1:3", "--point", point,
                "--json", str(out_json), "--csv", str(out_csv)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        reports = json.loads(out_json.read_text())["reports"]
        assert len(reports) == 3
        for rep in reports:  # vectors on I x N: a dt component and n of N
            assert len(rep["tension"]["n"]) == len(rep["bitension"]["n"]) == n
            assert rep["pairing_closed_form_applicable"] is False
        header = out_csv.read_text().splitlines()[0]
        assert header == "t,f,pairing,pairing_closed_form,power_residual,tangential_norm,normal_norm"

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
    "component a number": (
        _with(CONE_SCENE, "immersion", components=["u", "v", 1]),
        ["analyze", "{scene}"],
    ),
    "component null": (
        _with(CONE_SCENE, "immersion", components=["u", "v", None]),
        ["analyze", "{scene}"],
    ),
    "component a list": (
        _with(CONE_SCENE, "immersion", components=["u", "v", ["r"]]),
        ["analyze", "{scene}"],
    ),
    "ambient dimension a boolean": (
        _with(CONE_SCENE, "ambient", model="sphere", dim=True),
        ["analyze", "{scene}"],
    ),
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
    "tol -1": (CONE_SCENE, ["classify", "{scene}", "--points", "1,0.7", "--tol", "-1"]),
    "scene tolerance -1": (
        _with(CONE_SCENE, "analysis", tolerance=-1.0),
        ["classify", "{scene}", "--points", "1,0.7"],
    ),
    "warp beyond float range": (
        _with(SLICE_SCENE, "warp", interval=[0.0, 1000.0]),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    "warp exponent NaN": (
        _with(SLICE_SCENE, "warp", expr="1+2^(t*1e308*10-t*1e308*10)", interval=[0.5, 1.0]),
        ["classify", "{scene}", "--points", "0.3,-0.2"],
    ),
    "warp cos of infinity": (
        _with(SLICE_SCENE, "warp", expr="2+cos(1e308*1e308)"),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    # a lo:hi whose width overflows: at load and on the command line
    "warp interval too wide": (
        _with(SLICE_SCENE, "warp", interval=[-1e308, 1e308]),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    "warp t too wide": (SLICE_SCENE, ["warp", "{scene}", "--t=-1e308:1e308:3", "--point", "0.3,-0.2"]),
    "grid too wide": (CONE_SCENE, ["classify", "{scene}", "--grid=-1e308:1e308:3,0:0.1:2"]),
    "warp integer power above 128": (
        _with(SLICE_SCENE, "warp", expr="2+t^200", interval=[-1.0, 1.0]),
        ["warp", "{scene}", "--t=-1:1:3", "--point", "0.3,-0.2"],
    ),
    # the base of an exponent that holds t must be positive, at load as in
    # a report: (t-1)^t is refused at t = 1
    "warp variable exponent of zero": (
        _with(SLICE_SCENE, "warp", expr="(t-1)^t+3", interval=[1.0, 2.0]),
        ["warp", "{scene}", "--t", "1:2:2", "--point", "0.3,-0.2"],
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
    "scan two probes": (
        CONE_SCENE,
        ["scan", "{scene}", "--param", "r", "--range", "0.5:2", "--probe", "1,0.7;9,9"],
    ),
    "warp two points": (
        SLICE_SCENE,
        ["warp", "{scene}", "--t", "0:0.5:2", "--point", "0.3,-0.2;0.1,0.1"],
    ),
    "warp t NaN": (SLICE_SCENE, ["warp", "{scene}", "--t", "0:nan:2", "--point", "0.3,-0.2"]),
    "warp t outside the interval": (
        _with(SLICE_SCENE, "warp", interval=[0.0, 1.0]),
        ["warp", "{scene}", "--t", "5:6:2", "--point", "0.3,-0.2"],
    ),
    # counts of 1e11 points: a missed bound fails at once in numpy
    "warp t count bound": (
        SLICE_SCENE,
        ["warp", "{scene}", "--t", "0:0.5:100000000000", "--point", "0.3,-0.2"],
    ),
    "grid count bound": (
        CONE_SCENE,
        ["classify", "{scene}", "--grid", "0.5:2:100000000000,0:1:2"],
    ),
    "scan sample count bound": (
        CONE_SCENE,
        ["scan", "{scene}", "--param", "r", "--range", "0.5:2", "--samples", "100000000000"],
    ),
    "grid count product bound": (
        CONE_SCENE,
        ["analyze", "{scene}", "--grid", "0.5:2:100000,0:1:1000000"],
    ),
    # scene identifiers are checked at load; each of these once loaded and
    # exited 3 (a degenerate metric) or 0
    "variable listed twice": (
        _with(SLICE_SCENE, "immersion", variables=["u", "u"], components=["u", "u*u", "r"]),
        ["classify", "{scene}"],
    ),
    "variable a number": (
        _with(SLICE_SCENE, "immersion", variables=["u", "2"], components=["u", "u*u", "r"]),
        ["classify", "{scene}"],
    ),
    "variable empty": (
        _with(SLICE_SCENE, "immersion", variables=["u", ""], components=["u", "u*u", "r"]),
        ["classify", "{scene}"],
    ),
    "variable shadows a param": (
        _with(SLICE_SCENE, "immersion", variables=["u", "r"], components=["u", "r", "r"],
              params={"r": 2.0}),
        ["classify", "{scene}"],
    ),
    "warp param t": (
        _with(SLICE_SCENE, "warp", expr="t+2", params={"t": 5.0}),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    # a scene file that is not UTF-8, or whose JSON nests deeper than json reads
    "scene file not UTF-8": (b"\xff\xfe{}", ["analyze", "{scene}"]),
    "scene JSON nested too deeply": (b"[" * 200_000, ["analyze", "{scene}"]),
    # expressions nested more than expr.MAX_DEPTH deep, at 1,200 and 500 levels
    "warp nested too deeply": (
        _with(SLICE_SCENE, "warp", expr="t+2+(" + "+".join(["1"] * 1200) + ")"),
        ["warp", "{scene}", "--t", "0:1:2", "--point", "0.3,-0.2"],
    ),
    "component nested too deeply": (
        _with(CONE_SCENE, "immersion",
              components=["u", "v", "1+0*(" + "+".join(["u"] + ["0*u"] * 500) + ")"]),
        ["analyze", "{scene}"],
    ),
    "verify filter matches nothing": (CONE_SCENE, ["verify", "--filter", "zzz"]),
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


@pytest.mark.parametrize("case", ["scene file not UTF-8", "scene JSON nested too deeply"])
def test_undecodable_scene_file_is_a_scene_error_naming_it(tmp_path, case):
    path = write_scene(tmp_path, BAD_INPUT[case][0])
    with pytest.raises(SceneError) as exc:
        load_scene(path)
    assert str(exc.value).startswith(f"cannot decode scene file {path}: ")


@pytest.mark.parametrize("case", ["warp interval too wide", "warp t too wide", "grid too wide"])
def test_too_wide_names_the_width(tmp_path, capsys, case):
    # not "t = nan lies outside the warp interval" or "leaves the float range"
    data, argv = BAD_INPUT[case]
    scene = write_scene(tmp_path, data)
    run_cli([arg.format(scene=scene) for arg in argv])
    assert "too wide" in capsys.readouterr().err


F1_SQUARED_MESSAGE = (
    "f f'' + (m-1) f'^2 of the warping function must be finite, got f=1, f'=1e+200, f''=0 at t=0"
)


@pytest.mark.parametrize(
    "warp, interval, tgrid, code, message",
    [
        ("t^2-1e-4", [-1.0, 1.0], "-1:1:3", 3, "warping function must be positive, got -0.0001"),
        ("t^2-1e-4", [-1.0, 1.0], "-1:1:5", 3, "warping function must be positive, got -0.0001"),
        ("exp(t)", [-0.5, 1.0], "-2:2:5", 2, "t = -2 lies outside the warp interval [-0.5, 1]"),
        ("exp(t)", [-0.5, 1.0], "0:2:3", 2, "t = 2 lies outside the warp interval [-0.5, 1]"),
        # the pairing, 8 / t^4, leaves the float range
        ("t", [1e-300, 1.0], "1e-300:1:3", 3, "pairing is not finite at t = 1e-300"),
        # f, f' and f'' are finite, f'^2 and P are not
        ("1+1e200*t", [0.0, 1e-190], "0:1e-190:3", 3, F1_SQUARED_MESSAGE),
    ],
)
def test_warp_sweep_names_the_first_failing_t(
    tmp_path, capsys, warp, interval, tgrid, code, message
):
    # a sweep is one evaluation; its error is that of its first failing t
    scene = write_scene(tmp_path, _with(SLICE_SCENE, "warp", expr=warp, interval=interval))
    assert run_cli(["warp", scene, f"--t={tgrid}", "--point", "0.3,-0.2"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_warp_whose_f1_squared_overflows_exits_3_and_writes_no_json(tmp_path, capsys):
    # it printed a NaN pairing and an infinite power residual with exit 0
    data = _with(SLICE_SCENE, "warp", expr="1+1e200*t", interval=[0.0, 1e-190])
    scene = write_scene(tmp_path, data)
    out = tmp_path / "warp.json"
    argv = ["warp", scene, "--t=0:1e-190:3", "--point", "0.3,-0.2", "--json", str(out)]
    assert run_cli(argv) == 3
    assert capsys.readouterr().err == f"error: {F1_SQUARED_MESSAGE}\n"
    assert not out.exists()


def test_warp_whose_pairing_nears_the_float_range_exits_0(tmp_path, capsys):
    # the pairing is about 8.0e300; while the vectors were in chart
    # components tau2 . tau left the float range before f^2 e^2 = 1e-140
    # scaled it, and the run exited 3
    data = _with(SLICE_SCENE, "warp", expr="1e-70+1e10*t", interval=[0.0, 1e-80])
    scene = write_scene(tmp_path, data)
    out = tmp_path / "warp.json"
    argv = ["warp", scene, "--t=0:1e-80:3", "--point", "0.3,-0.2", "--json", str(out)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 3
    for rep in reports:
        closed = rep["pairing_closed_form"]
        assert abs(rep["pairing"] - closed) <= 1e-15 * abs(closed)
    assert reports[0]["pairing_closed_form"] == pytest.approx(8.0e300, rel=1e-12)


def test_warp_whose_pairing_overflows_exits_3_and_writes_nothing(tmp_path, capsys):
    # the pairing, about 8e312 from f = 1e-72 and f' = 1e12, leaves the
    # float range; it printed inf in three columns, and numpy warnings
    # (each an error under pytest's filterwarnings), with exit 0
    data = _with(SLICE_SCENE, "warp", expr="1e-72+1e12*t", interval=[0.0, 1e-82])
    scene = write_scene(tmp_path, data)
    out_json, out_csv = tmp_path / "warp.json", tmp_path / "warp.csv"
    argv = ["warp", scene, "--t=0:1e-82:3", "--point", "0.3,-0.2",
            "--json", str(out_json), "--csv", str(out_csv)]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pairing is not finite at t = 0\n"
    assert not out_json.exists() and not out_csv.exists()


def test_json_report_holding_a_nan_is_refused_unwritten(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(EvalDomainError, match="non-finite"):
        cli._emit_json(str(out), {"reports": [{"pairing": math.nan}]})
    assert not out.exists()


def test_point_bound_is_inclusive():
    assert len(cli._parse_tgrid(f"0:1:{cli.MAX_POINTS}")) == cli.MAX_POINTS
    with pytest.raises(UsageError, match="more than"):
        cli._parse_grid(f"0:1:{cli.MAX_POINTS // 2},0:1:3", 2)


def test_classify_beyond_float_range_exits_3(tmp_path, capsys):
    code = run_cli(["classify", write_scene(tmp_path, CONE_SCENE), "--points", "1e160,0.7"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


def test_classify_nan_exponent_exits_3(tmp_path, capsys):
    # 1e308*10 overflows where the evaluator forms it, with numpy's float
    # warnings off, and is refused there, before the NaN exponent it leads to
    scene = _with(CONE_SCENE, "immersion", components=[
        "r*u*cos(v)", "r*u*sin(v)", "u^(1e308*10-1e308*10)"
    ])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run_cli(["classify", write_scene(tmp_path, scene), "--points", "0.5,0.2"])
    err = capsys.readouterr().err
    assert seen == []
    assert code == 3
    assert err == "error: constant (1e+308*10.0) leaves the float range (inf)\n"


@pytest.mark.parametrize(
    "components, points",
    [
        (["u*1e200*1e200", "v", "u"], "0.5,0.2"),  # the component overflows
        (["u*1e160", "v", "u"], "0.5,0.2;0.1,0.3"),  # its metric overflows
    ],
    ids=["component", "metric"],
)
def test_classify_overflowing_component_exits_3(tmp_path, capsys, components, points):
    scene = _with(CONE_SCENE, "immersion", components=components)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run_cli(["classify", write_scene(tmp_path, scene), "--points", points])
    err = capsys.readouterr().err
    assert seen == []
    assert code == 3
    assert err == f"error: immersion component 0, {pretty(parse(components[0]))}, " \
        "leaves the float range\n"


def test_scan_lists_overflow_as_failure(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    argv = ["scan", write_scene(tmp_path, CONE_SCENE), "--param", "r"]
    argv += ["--range", "0.5:1e160", "--samples", "2", "--json", str(out_json)]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 0
    [(value, message)] = json.loads(out_json.read_text())["failures"]
    assert value == 1e160 and "float range" in message
    assert "Traceback" not in err


@pytest.mark.parametrize("warp, message", [
    ("2+cos(1e308*1e308)", "constant (1e+308*1e+308) leaves the float range (inf)"),
    ("exp(t)+log(0-1)", "log of non-positive value -1"),
])
def test_warp_whose_constant_fails_exits_2_at_load(tmp_path, capsys, warp, message):
    # the scene folds its warp's constants once; one that fails is left
    # unfolded, to fail the load where the evaluator forms it
    scene = write_scene(tmp_path, _with(SLICE_SCENE, "warp", expr=warp))
    assert run_cli(["warp", scene, "--t=0:1:3", "--point", "0.3,-0.2"]) == 2
    assert capsys.readouterr().err == f"error: {scene}.warp: {message}\n"


# a graph whose lambda and |A|^2 are finite at (0, 0.3) but whose Delta
# lambda, residuals and classify scale m (1 + |lambda|)(1 + |A|^2) are not
STEEP_GRAPH = {
    "ambient": {"model": "euclidean", "dim": 3},
    "immersion": {"variables": ["u", "v"], "components": ["u", "v", "k*u*u+v*v"],
                  "params": {"k": 1e110}},
}
STEEP_MESSAGE = "lapLambda at (0, 0.3) leaves the float range (nan)"


def _quiet_cli(argv):
    """The exit code of the command line, failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(argv)


def test_classify_of_overflowing_residuals_exits_3(tmp_path, capsys):
    # an infinite scale passed every residual: it printed all four flags True
    # and nan and inf maxima, with four RuntimeWarnings and exit 0
    out = tmp_path / "classify.json"
    argv = ["classify", write_scene(tmp_path, STEEP_GRAPH), "--points", "0,0.3",
            "--json", str(out)]
    assert _quiet_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {STEEP_MESSAGE}\n"
    assert not out.exists()


def test_analyze_of_overflowing_residuals_shows_an_error_row(tmp_path, capsys):
    # it printed lapLambda nan, normalRes nan and tangentialRes inf with exit 0
    out = tmp_path / "analyze.json"
    argv = ["analyze", write_scene(tmp_path, STEEP_GRAPH), "--points", "0,0.3",
            "--json", str(out)]
    assert _quiet_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: 1 point(s) failed\n"
    assert captured.out.splitlines()[1].rstrip().split(None, 2)[1:] == ["error", STEEP_MESSAGE]
    assert json.loads(out.read_text()) == {
        "reports": [{"point": [0.0, 0.3], "error": STEEP_MESSAGE}]
    }


def test_scan_lists_overflowing_residuals_as_failures(tmp_path, capsys):
    # it printed nan for the two larger samples with exit 0
    out = tmp_path / "scan.json"
    argv = ["scan", write_scene(tmp_path, STEEP_GRAPH), "--param", "k", "--range",
            "1e100:1e120", "--samples", "3", "--probe", "0,0.3", "--json", str(out)]
    assert _quiet_cli(argv) == 0
    report = json.loads(out.read_text())
    assert [r is None for _, r in report["samples"]] == [False, True, True]
    assert report["failures"] == [[5e119, STEEP_MESSAGE], [1e120, STEEP_MESSAGE]]
    assert capsys.readouterr().err == "".join(
        f"failed sample k={k}: {STEEP_MESSAGE}\n" for k in ("5e+119", "1e+120")
    )


@pytest.mark.parametrize("argv, code", [(["verify"], 0), (["classify"], 2)])
def test_module_entry_point(argv, code):
    # python -m warpgeo runs the same command line as warpgeo
    src = os.path.dirname(os.path.dirname(os.path.abspath(warpgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "warpgeo", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
