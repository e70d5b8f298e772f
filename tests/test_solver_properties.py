"""Property test of the two one-body solvers: GMRES equals the LU oracle on
generated small sphere meshes, waves and boundary-equation scales."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from emscat import IncidentWave, mesh_sphere, solve_current  # noqa: E402

K = 2.0 * np.pi / 6.0e-5  # default experiment wavenumber, 1/cm

#: GMRES stops once the true relative residual is below TOL, so its relative
#: error against the exact solution, in norm, is at most cond(A) * TOL.  The
#: boundary systems of these meshes have cond(A) below 6 at both scales and
#: LU is accurate to a few ulps, so RTOL leaves a margin of more than a
#: hundred.  Single entries may be near zero, hence the norm-wise check.
TOL = 1e-12
RTOL = 1e-9


def seeded_wave(seed):
    """Unit direction and unit transverse polarisation drawn from seed."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    amplitude = rng.normal(size=3)
    amplitude -= (amplitude @ direction) * direction
    amplitude /= np.linalg.norm(amplitude)
    return IncidentWave(amplitude=amplitude, direction=direction, wavenumber=K)


@given(m_phi=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 2.0]))
def test_gmres_equals_lu_on_small_spheres(m_phi, seed, scale):
    mesh, wave = mesh_sphere(1e-9, m_phi), seeded_wave(seed)
    gmres = solve_current(mesh, wave, tol=TOL, method="gmres", scale=scale)
    direct = solve_current(mesh, wave, method="direct", scale=scale)
    assert gmres.report.converged
    assert gmres.report.final_residual <= TOL
    error = np.linalg.norm(gmres.values - direct.values)
    assert error <= RTOL * np.linalg.norm(direct.values)
