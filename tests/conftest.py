import numpy as np
import pytest

from warpgeo import jet as J
from warpgeo import verify
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
def chart_metric_rule():
    """The metric rule of a chart's metric e^{2 rho} delta: point -> jet
    tensor (size, n, n)."""

    def rule_of(chart):
        def rule(point):
            x = [J.jet_variable(a, float(point[a]), chart.n, 3) for a in range(chart.n)]
            e2 = chart.metric_factor(J.stack(x), chart.n)
            return np.einsum("z,ab->zab", e2.coeffs, np.eye(chart.n))

        return rule

    return rule_of
