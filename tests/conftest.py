import numpy as np
import pytest

from warpgeo import jet as J
from warpgeo import oracle, verify
from warpgeo.ambient import AmbientChart
from warpgeo.immersion import immersion


@pytest.fixture
def sphere_slice():
    return verify.sphere_slice


@pytest.fixture
def cone():
    return verify.cone


@pytest.fixture
def plane():
    return immersion(("u", "v"), ("u", "v", "0"), {}, AmbientChart("euclidean", 3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chart_identity_map():
    """The identity map of a chart as a MapSpec whose domain metric is the
    chart's e^{2 rho} delta, one order below the seeds, and whose codomain
    Christoffels are None."""

    def map_of(chart):
        n = chart.n

        def evaluate(var_jets):
            x = J.stack(var_jets)
            y = J.trunc(x, n, J.order_of(x, n) - 1)
            e2 = chart.metric_factor(y, n, chart.conformal_factor(y, n))
            return x, np.einsum("z,ab->zab", e2.coeffs, np.eye(n))

        return oracle.MapSpec(n, n, evaluate, lambda x, n_vars: None)

    return map_of
