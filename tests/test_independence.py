"""The base the two paths share, fenced and certified.

The closed forms and the oracle are independent except for one base of
shared code, which `oracle`'s module docstring names: the metric, its
inverse and Christoffels, the covariant derivative along a map (of dphi,
the second fundamental form), the frame, the value layout and the
pull-back Hessian.  A defect there shows
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

from warpgeo import jet as J
from warpgeo import oracle, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.immersion import JET_ORDER, PointGeometry, immersion, values

BASE = {
    "induced_metric_jets",
    "metric_inverse",
    "christoffels_from_metric",
    "covariant_derivative",
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


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
def test_chart_has_constant_curvature(model, n):
    # h_lw R^l_ijk = c (h_jk h_iw - h_ik h_jw) with h = q^2 delta, R from
    # the chart's Christoffels (AmbientChart.christoffel) by the oracle's
    # own assembly: the chart is the base's last piece, and neither path
    # checks it against the space form it stands for.  The symbols are
    # symmetric too: a term d_a rho delta_bk alone changes no curvature
    chart = AmbientChart(model, n)
    spec = immersion(("u", "v"), ("u", "v") + ("0.1",) * (n - 2), {}, chart)
    x = (0.3, -0.2, 0.1, 0.05)[:n]
    seeded = J.stack([J.jet_variable(i, x[i], n, 2) for i in range(n)])
    gamma = oracle.inclusion_map(spec).codomain_christoffel(seeded, n)
    assert gamma is None or np.array_equal(gamma, gamma.swapaxes(2, 3))
    riem = oracle.codomain_riemann(oracle.inclusion_map(spec), x)
    h = np.eye(n) * (2.0 / (1.0 + chart.c * np.dot(x, x))) ** 2
    lhs = 0.0 if riem is None else np.einsum("lijk,lw->ijkw", riem, h)
    hh = np.einsum("jk,iw->ijkw", h, h)
    rhs = chart.c * (hh - hh.transpose(1, 0, 2, 3))
    gap = np.abs(lhs - rhs).max()
    assert gap <= 1e-12 * (1.0 + np.abs(rhs).max()), (gap, np.abs(rhs).max())


def _float_stage_hessian(V, gbar, dphi, gamma_dom, d):
    """(nabla^2 V)_{kl}^a as the oracle formed it on values before the base
    had one covariant derivative: d_k nabla V_l - Gamma^j_kl nabla V_j +
    Gbar(d_k phi, nabla V_l), by np.einsum, after the same first step."""
    nV = J.gradient(V, d, range(d))
    if gbar is not None:
        gV = J.contract("abc,c->ab", J.trunc(gbar, d, 1), J.trunc(V, d, 1), d)
        nV = nV + J.contract("ab,lb->la", gV, J.trunc(dphi, d, 1), d)
    nV_val = values(nV, 2)
    sec = values(J.gradient(nV, d, range(d)), 3)  # sec[k, l, a] = d_k nV[l, a]
    sec = sec - np.einsum("...jkl,...ja->...kla", values(gamma_dom, 3), nV_val)
    if gbar is not None:
        sec = sec + np.einsum(
            "...abc,...kb,...lc->...kla", values(gbar, 3), values(dphi, 2), nV_val
        )
    return sec


# (a map, a point): curved charts, whose Gbar term is present, a flat one,
# where it is None, and a warped inclusion over a batch of t
HESSIAN_SCENES = {
    "S3 slice r=2": (lambda: oracle.inclusion_map(verify.sphere_slice(2.0)), (0.3, -0.2)),
    "S3 graph": (
        lambda: oracle.inclusion_map(GAUSS_SCENES["S3 graph"][0]), GAUSS_SCENES["S3 graph"][1]
    ),
    "cone r=1": (lambda: oracle.inclusion_map(verify.cone(1.0)), (1.0, 0.7)),
    "warped S3 slice, t batch": (
        lambda: oracle.warped_inclusion_map(
            warped.warped_scene(verify.sphere_slice(2.0), "exp(t)", {}, (-0.5, 1.0))
        ),
        (np.array([0.1, 0.3, 0.5]), 0.3, -0.2),
    ),
}


@pytest.mark.parametrize("name", list(HESSIAN_SCENES))
def test_pullback_hessian_matches_the_float_stage_formula(name):
    # every (k, l, a) entry of nabla^2 tau, not only its trace.  A
    # derivative index out of place adds Gbar(d_k phi, nabla tau_l) -
    # Gbar(d_l phi, nabla tau_k) where nabla^2 tau is symmetric (tau of an
    # inclusion in a space form is normal, so R(dphi_k, dphi_l) tau is 0),
    # and more in the warped product: the graph and the warped inclusion
    # show it, the umbilic slice and the flat cone do not, and no trace can
    make, point = HESSIAN_SCENES[name]
    mapspec = make()
    _, dphi, _, gamma_dom, gbar, tau = oracle._tension_pipeline(mapspec, point, JET_ORDER)
    got = oracle._pullback_hessian(tau, gbar, dphi, gamma_dom, mapspec.dim)
    ref = _float_stage_hessian(tau, gbar, dphi, gamma_dom, mapspec.dim)
    assert got.shape == ref.shape == np.shape(point[0]) + (mapspec.dim,) * 2 + (mapspec.codim,)
    gap = np.abs(got - ref).max()
    assert gap <= 1e-15 * (1.0 + np.abs(ref).max()), (gap, np.abs(ref).max())
