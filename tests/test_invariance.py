"""Invariance relations: the geometric quantities of a submanifold do not
depend on its parametrization, while the chart-dependent terms that form
them do (the Christoffels of the induced metric, the pull-back Hessian's
domain term).  The closed forms and the oracle share those terms' inputs,
so a relation checks them from a side neither path shares.

    python3 -m pytest tests/test_invariance.py
"""

from __future__ import annotations

import numpy as np
import pytest

from warpgeo import oracle, verify
from warpgeo.ambient import AmbientChart
from warpgeo.biharmonic import normal_residual, tangential_residual
from warpgeo.immersion import PointGeometry, immersion

TOL = 1e-12


def psi(U):
    """u = U + U^3/3: psi' = 1 + U^2 > 0, so it keeps the orientation and
    with it the sign of lambda."""
    return U + U**3 / 3


# (the surface over (u, v), the same surface over (U, v) with u = psi(U),
# points (U, v))
REPARAMETRIZED = {
    "cone r=2": (
        verify.cone(2.0),
        immersion(
            ("U", "v"),
            ("r*(U+U^3/3)*cos(v)", "r*(U+U^3/3)*sin(v)", "U+U^3/3"),
            {"r": 2.0},
            AmbientChart("euclidean", 3),
        ),
        ((0.5, 1.0), (0.8, 0.7), (1.2, -0.4)),
    ),
    "S3 slice r=2": (
        verify.sphere_slice(2.0),
        immersion(("U", "v"), ("U+U^3/3", "v", "r"), {"r": 2.0}, AmbientChart("sphere", 3)),
        ((0.3, -0.2), (-0.5, 0.1), (0.6, 0.4)),
    ),
}


def _invariants(pg):
    """The scalars of a hypersurface point and its vectors in the ambient
    chart, none of which depends on the parametrization."""
    tangential, tangential_norm = tangential_residual(pg)
    return {
        "lambda": pg.lam,
        "|A|^2": pg.normA2,
        "lapLambda": pg.lap_lam,
        "normal residual": normal_residual(pg),
        "tangential residual": tangential,
        "tangential residual norm": tangential_norm,
        "tau_2(i)": oracle.submanifold_bitension(pg),
    }


@pytest.mark.parametrize("name", sorted(REPARAMETRIZED))
def test_nonlinear_reparametrization_keeps_every_invariant(name):
    spec, reparametrized, points = REPARAMETRIZED[name]
    for U, v in points:
        want = _invariants(PointGeometry(spec, (psi(U), v)))
        got = _invariants(PointGeometry(reparametrized, (U, v)))
        for quantity, a in want.items():
            a, b = np.asarray(a), np.asarray(got[quantity])
            # relative to 1 + |a|, as verify's oracle gaps
            gap = np.abs(a - b).max() / (1.0 + np.abs(a).max())
            assert gap <= TOL, (quantity, (U, v), a, b)
