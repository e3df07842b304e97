"""The base the two paths share, fenced and certified.

The closed forms and the oracle are independent except for one base of
shared code, which `oracle`'s module docstring names: the metric, its
inverse and Christoffels, the second fundamental form and its trace, the
frame, the value layout and the pull-back Hessian.  A defect there shows
in both paths alike, so their comparison cannot see it.  This file keeps
the base from growing unseen (the oracle imports nothing else of the
closed forms) and checks it against the Gauss equation, which neither
path evaluates.

The converse fence, that no closed-form module imports `oracle`, does not
hold yet: `oracle.submanifold_bitension` is the closed form of tau_2(i),
and `warped` reads it from there.  It is left out until that function
leaves the oracle.

    python3 -m pytest tests/test_independence.py
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from warpgeo import oracle, verify
from warpgeo.ambient import AmbientChart
from warpgeo.immersion import PointGeometry, immersion

BASE = {
    "induced_metric_jets",
    "metric_inverse",
    "christoffels_from_metric",
    "second_fundamental_form",
    "orthonormal_frame",
    "values",
    "_pullback_hessian",
}
# what else the oracle reads of the closed-form modules: the seed order,
# and the geometry and the curvature closed form `submanifold_bitension`
# reads
ALSO_IMPORTED = {
    "immersion": {"JET_ORDER", "PointGeometry"},
    "ambient": {"spaceform_curvature"},
}


def _oracle_imports():
    """{module: names} of every package import in oracle.py; a module
    imported whole is listed under the name "*"."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault(node.module, set()).add(alias.name)
    return found


def test_oracle_reads_the_closed_forms_only_through_the_base():
    imports = _oracle_imports()
    assert set(imports) <= {"jet", "errors", "immersion", "ambient"}, imports
    assert imports["immersion"] <= BASE | ALSO_IMPORTED["immersion"]
    assert imports["ambient"] <= ALSO_IMPORTED["ambient"]
    # the fence and the docstring name one base
    assert {name for name in BASE if f"`{name}`" not in oracle.__doc__} == set()


# (the immersion, a point): hypersurfaces in each space form, a surface of
# codimension 2, a graph, and a flat torus in R4, whose nonzero h(B, B)
# terms cancel
GAUSS_SCENES = {
    "cone r=2": (verify.cone(2.0), (1.0, 0.7)),
    "S3 slice r=2": (verify.sphere_slice(2.0), (0.3, -0.2)),
    "S4 slice r=0.5": (verify.sphere_slice(0.5, 3), (0.3, -0.2, 0.1)),
    "H3 slice r=0.5": (
        immersion(("u", "v"), ("u", "v", "r"), {"r": 0.5}, AmbientChart("hyperbolic", 3)),
        (0.3, -0.2),
    ),
    "S4 codim-2": (
        immersion(
            ("u", "v"), ("u", "v", "0.3+0.1*u*v", "0.2*u-0.1*v^2"), {}, AmbientChart("sphere", 4)
        ),
        (0.4, -0.3),
    ),
    "S3 graph": (
        immersion(("u", "v"), ("u", "v", "0.5+0.2*u^2-0.1*u*v"), {}, AmbientChart("sphere", 3)),
        (0.3, -0.2),
    ),
    "flat torus in R4": (
        immersion(
            ("u", "v"),
            ("0.6*cos(u)", "0.6*sin(u)", "0.8*cos(v)", "0.8*sin(v)"),
            {},
            AmbientChart("euclidean", 4),
        ),
        (0.3, -0.2),
    ),
}


@pytest.mark.parametrize("name", sorted(GAUSS_SCENES))
def test_gauss_equation(name):
    # R_ijkw = c (g_jk g_iw - g_ik g_jw) + h(B_jk, B_iw) - h(B_ik, B_jw),
    # R_ijkw = g_lw R^l_ijk from the Christoffels of g, h = e2 delta
    spec, point = GAUSS_SCENES[name]
    pg = PointGeometry(spec, point)
    g, B = pg.g_val, pg.B_val
    lhs = np.einsum("lijk,lw->ijkw", oracle.riemann(pg.gamma_c, spec.m), g)
    gg = np.einsum("jk,iw->ijkw", g, g)
    bb = pg.e2_val * np.einsum("jka,iwa->ijkw", B, B)
    rhs = spec.ambient.c * (gg - gg.transpose(1, 0, 2, 3)) + bb - bb.transpose(1, 0, 2, 3)
    gap = np.abs(lhs - rhs).max()
    assert gap <= 1e-12 * (1.0 + np.abs(rhs).max()), (gap, np.abs(rhs).max())
