import pytest

from obrealize import derive_scales, designed_profile, default_grid, extended_set
from obrealize.grid import make_grid
from obrealize.realize import lorenz_field, rescale_into_ball
from obrealize.reduction import asymptotic_basis


@pytest.fixture(scope="session")
def params30():
    return derive_scales(30.0)


@pytest.fixture(scope="session")
def profile30(params30):
    return designed_profile(params30, [1, 7])


@pytest.fixture(scope="session")
def grid30(profile30):
    return default_grid(profile30)


@pytest.fixture(scope="session")
def params50():
    return derive_scales(50.0)


@pytest.fixture(scope="session")
def profile50(params50):
    return designed_profile(params50, [1, 7])


@pytest.fixture(scope="session")
def kset2():
    return extended_set(2)


@pytest.fixture(scope="session")
def basis50(profile50, kset2):
    grid = make_grid(profile50.params.h, 300, 4.0)
    return asymptotic_basis(kset2.full, profile50.params, grid)


@pytest.fixture(scope="session")
def lorenz_target():
    """The Lorenz field conjugated into the unit ball (seed 1), with its
    absorbing blend; no test mutates it."""
    return rescale_into_ball(lorenz_field(), ball_radius=1.0, seed=1)
