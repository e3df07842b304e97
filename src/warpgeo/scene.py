"""Scene files: UTF-8 JSON with DSL expression strings embedded.

Top-level keys: ambient, immersion, warp (optional), analysis (optional).

    {
      "ambient":   {"model": "sphere", "dim": 3},
      "immersion": {"variables": ["u", "v"],
                    "components": ["u", "v", "r"],
                    "params": {"r": 1.0}},
      "warp":      {"expr": "exp(t)", "interval": [-1.0, 1.0], "params": {}},
      "analysis":  {"points": [[0.3, -0.2]], "tolerance": 1e-7}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .ambient import AmbientChart
from .errors import SceneError, WarpgeoError
from .immersion import immersion
from .warped import warped_scene

DEFAULT_TOLERANCE = 1e-7


@dataclass(frozen=True)
class Scene:
    immersion: object  # ImmersionSpec
    warped: object  # WarpedScene or None
    points: tuple
    tolerance: float

    def require_warp(self):
        if self.warped is None:
            raise SceneError("scene has no warp block")
        return self.warped


def _is_number(value):
    """A finite JSON number; Python's json also reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _expect(mapping, key, kind, where):
    if key not in mapping:
        raise SceneError(f"{where}: missing key {key!r}")
    value = mapping[key]
    if kind is float:
        if not _is_number(value):
            raise SceneError(f"{where}: {key!r} must be a finite number")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kind):  # a bool is an int
        raise SceneError(f"{where}: {key!r} must be {kind.__name__}")
    return value


def _params(block, where):
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise SceneError(f"{where}: 'params' must be an object")
    return {key: _expect(params, key, float, f"{where}.params") for key in params}


def scene_from_dict(data, where="scene"):
    if not isinstance(data, dict):
        raise SceneError(f"{where}: top level must be an object")
    amb = _expect(data, "ambient", dict, where)
    model = _expect(amb, "model", str, f"{where}.ambient")
    dim = _expect(amb, "dim", int, f"{where}.ambient")
    try:
        chart = AmbientChart(model, dim)
    except WarpgeoError as exc:
        raise SceneError(f"{where}.ambient: {exc}") from exc

    imm = _expect(data, "immersion", dict, where)
    variables = _expect(imm, "variables", list, f"{where}.immersion")
    components = _expect(imm, "components", list, f"{where}.immersion")
    for i, comp in enumerate(components):
        if not isinstance(comp, str):
            raise SceneError(f"{where}.immersion: component {i} must be a string")
    params = _params(imm, f"{where}.immersion")
    try:
        spec = immersion(variables, components, params, chart)
    except WarpgeoError as exc:
        raise SceneError(f"{where}.immersion: {exc}") from exc

    warp = None
    if "warp" in data:
        wblock = _expect(data, "warp", dict, where)
        expr = _expect(wblock, "expr", str, f"{where}.warp")
        interval = _expect(wblock, "interval", list, f"{where}.warp")
        if len(interval) != 2 or not all(map(_is_number, interval)):
            raise SceneError(f"{where}.warp: interval must be [lo, hi] of finite numbers")
        wparams = _params(wblock, f"{where}.warp")
        try:
            warp = warped_scene(spec, expr, wparams, tuple(interval))
        except WarpgeoError as exc:
            raise SceneError(f"{where}.warp: {exc}") from exc

    points = ()
    tolerance = DEFAULT_TOLERANCE
    if "analysis" in data:
        ablock = _expect(data, "analysis", dict, where)
        if "points" in ablock:
            raw = _expect(ablock, "points", list, f"{where}.analysis")
            pts = []
            for p in raw:
                if not isinstance(p, list) or len(p) != spec.m:
                    raise SceneError(
                        f"{where}.analysis: each point needs {spec.m} coordinates"
                    )
                if not all(map(_is_number, p)):
                    raise SceneError(f"{where}.analysis: point {p} must hold finite numbers")
                pts.append(tuple(float(x) for x in p))
            points = tuple(pts)
        if "tolerance" in ablock:
            tolerance = _expect(ablock, "tolerance", float, f"{where}.analysis")

    return Scene(spec, warp, points, tolerance)


def load_scene(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"malformed JSON in {path}: {exc}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise SceneError(f"cannot decode scene file {path}: {exc}") from None
    return scene_from_dict(data, where=str(path))
