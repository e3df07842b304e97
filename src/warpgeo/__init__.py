"""Verification engine for biharmonic hypersurfaces and warped-product
inclusions, built on truncated Taylor (jet) arithmetic."""

from .ambient import AmbientChart, WarpEval
from .biharmonic import classify, normal_residual, parameter_scan, tangential_residual
from .errors import (
    ConfigError,
    DegenerateImmersionError,
    EvalDomainError,
    ExprSyntaxError,
    SceneError,
    SingularJetError,
    UsageError,
    WarpgeoError,
)
from .immersion import ImmersionSpec, PointGeometry, immersion
from .scene import Scene, load_scene, scene_from_dict
from .warped import (
    WarpedScene,
    base_point,
    inclusion_bitension,
    inclusion_tension,
    pairing,
    ricci_warped_check,
    warped_report,
    warped_scene,
)

__all__ = [
    "AmbientChart",
    "ConfigError",
    "DegenerateImmersionError",
    "EvalDomainError",
    "ExprSyntaxError",
    "ImmersionSpec",
    "PointGeometry",
    "Scene",
    "SceneError",
    "SingularJetError",
    "UsageError",
    "WarpEval",
    "WarpedScene",
    "WarpgeoError",
    "base_point",
    "classify",
    "immersion",
    "inclusion_bitension",
    "inclusion_tension",
    "load_scene",
    "normal_residual",
    "pairing",
    "parameter_scan",
    "ricci_warped_check",
    "scene_from_dict",
    "tangential_residual",
    "warped_report",
    "warped_scene",
]

__version__ = "0.1.0"
