"""Property test of the one-body coupling A on split and unsplit meshes and on
both coefficient branches: reciprocity, on generated tangential vectors."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from emscat.geometry import CollocationMesh, mesh_cube, mesh_ellipsoid, mesh_sphere  # noqa: E402
from emscat.one_body import OneBodyOperator  # noqa: E402
from emscat.waves import default_wave  # noqa: E402


def nudged(mesh):
    """mesh with point 5 moved by 1e-6 of its size along y: the trivial group."""
    points = mesh.points.copy()
    points[5, 1] += 1e-6 * float(np.abs(mesh.points - mesh.center).max())
    return CollocationMesh(points=points, normals=mesh.normals, weights=mesh.weights,
                           volume=mesh.volume, center=mesh.center)


#: Meshes of the property, each P <= 330: split by y and z (sphere), by x,
#: y and z (ellipsoid, cube), and not split (nudged sphere).
MESHES = {
    "sphere": lambda: mesh_sphere(1e-9, 8),
    "nudged-sphere": lambda: nudged(mesh_sphere(1e-9, 8)),
    "ellipsoid": lambda: mesh_ellipsoid(1e-8, 1e-9, 1e-9, 6),
    "cube": lambda: mesh_cube(1e-7, 5),
}


@functools.cache
def coupling(name: str, kd: float) -> OneBodyOperator:
    """Operator I + A on mesh `name` at k D = kd, D the diagonal of its box.

    kd = 0 takes the default wave.
    """
    mesh = MESHES[name]()
    k = kd / float(np.linalg.norm(np.ptp(mesh.points, axis=0))) if kd else default_wave().wavenumber
    return OneBodyOperator(mesh, k)


#: (mesh, k D): the two spheres store real coefficients at the default wave;
#: the ellipsoid, the cube and every mesh at k D = 1 store complex ones.
CASES = [(name, kd) for name in MESHES for kd in (0.0, 1.0)]
cases = st.sampled_from(CASES)
seeds = st.integers(0, 2**32 - 1)


def tangential(rng, normals):
    v = rng.normal(size=normals.shape) + 1j * rng.normal(size=normals.shape)
    return v - np.einsum("ip,ip->i", v, normals)[:, None] * normals


def apply_coupling(operator, v):
    return (operator.matvec(v.reshape(-1)) - v.reshape(-1)).reshape(-1, 3)


def test_cases_cover_both_branches_split_and_unsplit():
    operators = [coupling(*case) for case in CASES]
    assert {op.directions is None for op in operators} == {True, False}
    assert {op.mirrors for op in operators} == {(), ("y", "z"), ("x", "y", "z")}


# the first example of each case builds its operator; no deadline, so that
# the build is not taken for an unreliable timing
@settings(deadline=None)
@given(cases, seeds)
def test_coupling_is_reciprocal(case, seed):
    # (A J)_i = N_i x sum_j c_ij w_j (x_i - x_j) x J_j with c_ij = c_ji, so
    # for tangential u and J, sum_i w_i (u_i x N_i).(A J)_i =
    # -sum_ij c_ij w_i w_j det[u_i, x_i - x_j, J_j] is symmetric in (u, J),
    # unconjugated; the weights on the row side would break it
    operator = coupling(*case)
    mesh = operator._mesh
    rng = np.random.default_rng(seed)
    u, j = tangential(rng, mesh.normals), tangential(rng, mesh.normals)
    au, aj = apply_coupling(operator, u), apply_coupling(operator, j)
    u_n, j_n = np.cross(u, mesh.normals), np.cross(j, mesh.normals)
    lhs = mesh.weights @ np.einsum("ip,ip->i", u_n, aj)
    rhs = mesh.weights @ np.einsum("ip,ip->i", j_n, au)
    scale = mesh.weights @ (np.linalg.norm(u_n, axis=1) * np.linalg.norm(aj, axis=1))
    assert abs(lhs - rhs) <= 1e-12 * scale
