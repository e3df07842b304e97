import numpy as np
import pytest

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
