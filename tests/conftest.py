import numpy as np
import pytest

from oracles import circle_curve, ellipse_curve, polynomial_curve

from liouvol.mapping import conformal_map_pair
from liouvol.quadrature import QuadratureGrid


@pytest.fixture(scope="session")
def grid():
    return QuadratureGrid.disk()


@pytest.fixture(scope="session")
def ellipse():
    return ellipse_curve(1.2, 1.0)


@pytest.fixture(scope="session")
def ellipse_maps(ellipse):
    return conformal_map_pair(ellipse)


@pytest.fixture(scope="session")
def cubic():
    return polynomial_curve(0.0, 0.05)


@pytest.fixture(scope="session")
def cubic_maps(cubic):
    return conformal_map_pair(cubic)


@pytest.fixture(scope="session")
def circle():
    return circle_curve()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
