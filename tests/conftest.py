import pytest

from dampedwave.initial_data import SmoothBump, make_datum


@pytest.fixture(scope="session")
def single_1d():
    return make_datum([SmoothBump((0.0,), 0.7, 1.0)], 1)


@pytest.fixture(scope="session")
def unit_1d():
    return make_datum([SmoothBump((0.0,), 1.0, 1.0)], 1)


@pytest.fixture(scope="session")
def two_1d():
    return make_datum([SmoothBump((-0.5,), 0.7, 1.0),
                       SmoothBump((0.9,), 0.4, 0.6)], 1)


@pytest.fixture(scope="session")
def two_2d():
    return make_datum([SmoothBump((0.0, 0.0), 1.0, 1.0),
                       SmoothBump((1.6, 0.9), 0.55, 0.8)], 2)


@pytest.fixture(scope="session")
def single_3d():
    return make_datum([SmoothBump((0.0, 0.0, 0.0), 1.0, 1.0)], 3)


@pytest.fixture(scope="session")
def two_3d():
    return make_datum([SmoothBump((0.0, 0.0, 0.0), 1.0, 1.0),
                       SmoothBump((2.0, 1.0, -0.5), 0.55, 0.8)], 3)
