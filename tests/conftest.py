"""Shared fixtures; the expensive solves are session-scoped and reused."""

import numpy as np
import pytest

from emscat import (
    gamma_numeric,
    gamma_sphere_analytic,
    lattice_layout,
    mesh_cube,
    mesh_ellipsoid,
    mesh_sphere,
    solve_current,
    solve_effective_field,
)
from emscat.waves import default_wave

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Deterministic examples and no on-disk database: reruns see the same
    # cases and the suite stays about as fast as without the property tests.
    settings.register_profile(
        "emscat", derandomize=True, deadline=None, max_examples=50, database=None
    )
    settings.load_profile("emscat")


@pytest.fixture(scope="session")
def wave():
    return default_wave()


@pytest.fixture(scope="session")
def sphere766():
    return mesh_sphere(1e-9, 12)


@pytest.fixture(scope="session")
def sphere766_current(wave, sphere766):
    return solve_current(sphere766, wave)


@pytest.fixture(scope="session")
def sphere766_current_s2(wave, sphere766):
    return solve_current(sphere766, wave, scale=2.0)


@pytest.fixture(scope="session")
def sphere766_gamma(sphere766):
    return gamma_numeric(sphere766, frame="local")


@pytest.fixture(scope="session")
def ellipsoid1052():
    return mesh_ellipsoid(1e-8, 1e-9, 1e-9, 14)


@pytest.fixture(scope="session")
def ellipsoid1052_current(wave, ellipsoid1052):
    return solve_current(ellipsoid1052, wave)


@pytest.fixture(scope="session")
def ellipsoid1052_gamma(ellipsoid1052):
    return gamma_numeric(ellipsoid1052, frame="local")


@pytest.fixture(scope="session")
def ellipsoid1762():
    return mesh_ellipsoid(1e-8, 1e-9, 1e-9, 18)


@pytest.fixture(scope="session")
def ellipsoid1762_current(wave, ellipsoid1762):
    return solve_current(ellipsoid1762, wave)


@pytest.fixture(scope="session")
def ellipsoid1762_gamma(ellipsoid1762):
    return gamma_numeric(ellipsoid1762, frame="local")


@pytest.fixture(scope="session")
def cube600():
    return mesh_cube(1e-7, 10)


@pytest.fixture(scope="session")
def cube600_current(wave, cube600):
    return solve_current(cube600, wave)


@pytest.fixture(scope="session")
def cube600_current_s2(wave, cube600):
    return solve_current(cube600, wave, scale=2.0)


@pytest.fixture(scope="session")
def many27(wave):
    layout = lattice_layout(27, 1e-7, 1e-9)
    return layout, solve_effective_field(layout, wave, gamma_sphere_analytic())


@pytest.fixture(scope="session")
def diagonal():
    return np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
