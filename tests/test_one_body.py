"""One-body boundary solver: assembly oracles, moments, gamma, fields."""

import tracemalloc
import warnings

import numpy as np
import pytest

from emscat.geometry import CollocationMesh, mesh_sphere
from emscat.kernels import CoincidentPointsError, green
from emscat.linalg import solve_direct
from emscat.one_body import (
    GammaMatrix,
    OneBodyOperator,
    SurfaceCurrent,
    assemble_one_body,
    field_e_asymptotic,
    field_e_exact,
    field_h,
    gamma_numeric,
    gamma_sphere_analytic,
    moment_q_asymptotic,
    moment_q_exact,
    solve_current,
    _local_frames,
)
from emscat.waves import IncidentWave, default_wave

VOLUME = 4.0 / 3.0 * np.pi * 1e-27  # sphere a = 1e-9 cm


def tiny_mesh():
    """Four hand-placed points with unit normals and simple weights."""
    points = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.7, 0.5, 0.2]]
    )
    normals = points / np.linalg.norm(points, axis=1)[:, None]
    return CollocationMesh(
        points=points,
        normals=normals,
        weights=np.array([0.3, 0.4, 0.5, 0.6]),
        volume=1.0,
        center=np.zeros(3),
    )


def test_block_matches_hand_coefficient_ledger():
    """Dense entries against the classical coefficient formulas at k = 0.

    With the half-jump scale s = 2 the block (i, j) must equal
    2 [grad_p g0 N_q(i) - delta_pq grad g0 . N(i)] w_j.
    """
    mesh = tiny_mesh()
    op = OneBodyOperator(mesh, wavenumber=0.0, scale=2.0)
    dense = op.to_dense()
    i, j = 0, 2
    grad = green(0.0, mesh.points[i], mesh.points[j]).gradient
    n_i = mesh.normals[i]
    w_j = mesh.weights[j]
    block = 2.0 * (np.outer(grad, n_i) - np.eye(3) * (grad @ n_i)) * w_j
    np.testing.assert_allclose(
        dense[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], block, rtol=1e-14
    )
    # diagonal block is the identity
    np.testing.assert_allclose(
        dense[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], np.eye(3), atol=1e-15
    )


def test_rhs_is_minus_scale_n_cross_e0():
    mesh = tiny_mesh()
    wave = default_wave()
    with pytest.warns(UserWarning, match="small-body"):  # cm-size test body
        _, rhs = assemble_one_body(mesh, wave, scale=2.0)
    i = 1
    expected = -2.0 * np.cross(mesh.normals[i], wave.field(mesh.points[i]))
    np.testing.assert_allclose(rhs[3 * i : 3 * i + 3], expected, rtol=1e-14)


def test_matvec_matches_dense_columns():
    mesh = tiny_mesh()
    op = OneBodyOperator(mesh, wavenumber=2.0, scale=1.0)
    dense = op.to_dense()
    n = dense.shape[0]
    for col in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[col] = 1.0
        np.testing.assert_allclose(
            op.matvec(basis), dense[:, col], rtol=1e-14, atol=1e-16
        )


# A small body far from the origin: the expanded matvec must not cancel.
OFF_ORIGIN = (1.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def off_origin_mesh():
    return mesh_sphere(1e-9, 5, center=OFF_ORIGIN)  # P = 119


def pairwise_coupling(mesh, k):
    """Unscaled A from green() per pair: [grad g N_i^T - I grad g . N_i] w_j."""
    p = mesh.n_points
    a = np.zeros((p, 3, p, 3), dtype=complex)
    for i in range(p):
        n_i = mesh.normals[i]
        for j in range(p):
            if j != i:
                grad = green(k, mesh.points[i], mesh.points[j]).gradient * mesh.weights[j]
                a[i, :, j, :] = np.outer(grad, n_i) - np.eye(3) * (grad @ n_i)
    return a.reshape(3 * p, 3 * p)


@pytest.fixture(scope="module", params=[default_wave().wavenumber, 1e9], ids=["default-k", "kr~1"])
def off_origin_oracle(request, off_origin_mesh):
    return request.param, pairwise_coupling(off_origin_mesh, request.param)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_operator_matches_pairwise_oracle_off_origin(off_origin_mesh, off_origin_oracle, scale):
    k, coupling = off_origin_oracle
    op = OneBodyOperator(off_origin_mesh, k, scale=scale)
    expected = np.eye(op.shape[0]) + scale * coupling
    # Entries that vanish in exact arithmetic, and the imaginary part of
    # exp(ikr)(ikr - 1) ~ (kr)^3 for kr << 1, carry roundoff of the size of
    # the largest entry times eps in both codes: compare against that scale.
    atol = 1e-12 * scale * np.abs(coupling).max()
    np.testing.assert_allclose(op.to_dense(), expected, rtol=1e-12, atol=atol)
    x = np.random.default_rng(3).normal(size=(2, op.shape[0])).T @ np.array([1.0, 1j])
    np.testing.assert_allclose(op.matvec(x), expected @ x, rtol=1e-12, atol=atol)


def test_coincident_points_rejected():
    mesh = mesh_sphere(1e-9, 4)
    twin = CollocationMesh(
        points=np.vstack([mesh.points, mesh.points[5]]),
        normals=np.vstack([mesh.normals, mesh.normals[5]]),
        weights=np.append(mesh.weights, mesh.weights[5]),
        volume=mesh.volume,
        center=mesh.center,
    )
    with pytest.raises(CoincidentPointsError, match="5 and 76"):
        OneBodyOperator(twin, default_wave().wavenumber)
    with pytest.raises(ValueError, match="coincide"):
        solve_current(twin, default_wave())
    with pytest.raises(CoincidentPointsError):
        gamma_numeric(twin)


def test_operator_assembly_peak_memory_per_pair(wave):
    mesh = mesh_sphere(1e-9, 18)  # P = 1762
    tracemalloc.start()
    try:
        OneBodyOperator(mesh, wave.wavenumber)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * mesh.n_points**2


def test_zero_incident_field_gives_zero_current():
    mesh = mesh_sphere(1e-9, 4)
    wave = IncidentWave(
        amplitude=np.zeros(3), direction=np.array([0.0, 1.0, 0.0]),
        wavenumber=default_wave().wavenumber,
    )
    current = solve_current(mesh, wave)
    assert np.all(current.values == 0)


def test_solve_linearity_in_amplitude(sphere766):
    wave1 = default_wave()
    wave3 = IncidentWave(
        amplitude=3.0 * wave1.amplitude, direction=wave1.direction,
        wavenumber=wave1.wavenumber,
    )
    mesh = mesh_sphere(1e-9, 5)
    j1 = solve_current(mesh, wave1, tol=1e-12).values
    j3 = solve_current(mesh, wave3, tol=1e-12).values
    np.testing.assert_allclose(j3, 3.0 * j1, rtol=1e-9, atol=1e-10 * np.abs(j1).max())


def test_moment_constant_density(sphere766):
    const = np.array([1.0 + 2j, -0.5, 3j])
    current = SurfaceCurrent(
        values=np.tile(const, (sphere766.n_points, 1)), report=None
    )
    q = moment_q_exact(current, sphere766)
    np.testing.assert_allclose(q, const * sphere766.area, rtol=1e-12)


def test_tangentiality_structural(sphere766_current, sphere766):
    j = sphere766_current.values
    normal_part = np.abs(np.einsum("ij,ij->i", j, sphere766.normals.astype(complex)))
    assert normal_part.max() / np.abs(j).max() < 1e-12


def test_gmres_converges_on_full_resolution_system(sphere766, wave):
    from emscat.linalg import solve_gmres

    operator, rhs = assemble_one_body(sphere766, wave)
    _, report = solve_gmres(operator.matvec, rhs, tol=1e-12, restart=30)
    assert report.converged
    assert report.final_residual <= 1e-12


def test_direct_and_gmres_solutions_agree():
    mesh = mesh_sphere(1e-9, 5)
    wave = default_wave()
    j_gmres = solve_current(mesh, wave, tol=1e-12).values
    j_direct = solve_current(mesh, wave, method="direct").values
    assert (
        np.linalg.norm(j_gmres - j_direct) / np.linalg.norm(j_direct) < 1e-8
    )


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method 'lu'"):
        solve_current(mesh_sphere(1e-9, 4), default_wave(), method="lu")


# --- gamma -------------------------------------------------------------------

def test_gamma_sphere_analytic_values():
    gamma = gamma_sphere_analytic()
    np.testing.assert_allclose(
        np.diag(gamma.gamma), [-1.0 / 3.0, -1.0 / 3.0, 1.0 / 6.0], rtol=1e-15
    )
    np.testing.assert_allclose(
        np.diag(gamma.tau), [1.5, 1.5, 6.0 / 7.0], rtol=1e-15
    )
    np.testing.assert_allclose(
        gamma.tau @ (np.eye(3) + gamma.gamma), np.eye(3), atol=1e-10
    )


def test_gamma_numeric_sphere_local_frame(sphere766_gamma):
    target = np.diag([-1.0 / 3.0, -1.0 / 3.0, 1.0 / 6.0])
    assert np.max(np.abs(sphere766_gamma.gamma - target)) <= 5e-2


def test_gamma_numeric_lab_frame_trace(sphere766):
    gamma = gamma_numeric(sphere766, frame="lab")
    # isotropic invariant: trace converges to -1/2
    assert np.trace(gamma.gamma).real == pytest.approx(-0.5, abs=0.03)


def test_gamma_numeric_matches_pair_sum_off_origin(off_origin_mesh):
    mesh = off_origin_mesh
    # per_source[t] = sum_{s != t} grad_s g0(s, t) N_s^T w_s
    per_source = np.zeros((mesh.n_points, 3, 3))
    for t in range(mesh.n_points):
        for s in range(mesh.n_points):
            if s != t:
                grad = green(0.0, mesh.points[s], mesh.points[t]).gradient.real
                per_source[t] += np.outer(grad, mesh.normals[s]) * mesh.weights[s]
    basis = _local_frames(mesh.normals)
    local = np.einsum("tap,tab,tbq->tpq", basis, per_source, basis)
    for frame, values in (("lab", per_source), ("local", local)):
        expected = np.einsum("t,tpq->pq", mesh.weights, values) / mesh.area
        np.testing.assert_allclose(
            gamma_numeric(mesh, frame=frame).gamma, expected, rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("frame", ["local", "lab"])
def test_gamma_numeric_translation_invariant(off_origin_mesh, frame):
    shifted = off_origin_mesh
    # the same stored geometry, moved back to the origin (exact subtraction)
    at_origin = CollocationMesh(
        points=shifted.points - shifted.center,
        normals=shifted.normals,
        weights=shifted.weights,
        volume=shifted.volume,
        center=np.zeros(3),
    )
    np.testing.assert_allclose(
        gamma_numeric(shifted, frame=frame).gamma,
        gamma_numeric(at_origin, frame=frame).gamma,
        rtol=1e-12,
        atol=1e-12,
    )


def test_gamma_numeric_rejects_unknown_frame(sphere766):
    with pytest.raises(ValueError):
        gamma_numeric(sphere766, frame="galactic")


def test_gamma_matrix_rejects_singular_shift():
    with pytest.raises(np.linalg.LinAlgError):
        GammaMatrix.from_gamma(-np.eye(3))


# --- moments -----------------------------------------------------------------

def test_moment_asymptotic_reference_value(sphere766):
    wave = default_wave()
    q = moment_q_asymptotic(sphere766, wave, gamma_sphere_analytic())
    expected_z = (6.0 / 7.0) * wave.wavenumber * VOLUME
    assert q[2] == pytest.approx(1j * expected_z, rel=1e-12)
    assert abs(q[2] - 0.376e-21j) / 0.376e-21 < 1e-3
    np.testing.assert_allclose(q[:2], 0.0, atol=1e-30)


def test_moment_asymptotic_linearity(sphere766):
    wave = default_wave()
    gamma = gamma_sphere_analytic()
    q1 = moment_q_asymptotic(sphere766, wave, gamma)
    wave5 = IncidentWave(
        amplitude=5.0 * wave.amplitude, direction=wave.direction,
        wavenumber=wave.wavenumber,
    )
    np.testing.assert_allclose(
        moment_q_asymptotic(sphere766, wave5, gamma), 5.0 * q1, rtol=1e-14
    )


def test_moment_refinement_converges():
    wave = default_wave()
    values = []
    for m in (8, 12, 16):
        mesh = mesh_sphere(1e-9, m)
        current = solve_current(mesh, wave)
        values.append(moment_q_exact(current, mesh)[2].imag)
    gaps = np.abs(np.diff(values))
    assert gaps[1] < gaps[0]


# --- fields ------------------------------------------------------------------

def test_field_e_exact_reduces_to_incident(sphere766):
    wave = default_wave()
    current = SurfaceCurrent(
        values=np.zeros((sphere766.n_points, 3), dtype=complex), report=None
    )
    x = np.array([1e-6, 1e-6, 1e-6])
    np.testing.assert_allclose(
        field_e_exact(sphere766, wave, current, x), wave.field(x), rtol=1e-14
    )


def test_field_e_exact_rejects_interior_point(sphere766, sphere766_current):
    with pytest.raises(ValueError, match="inside"):
        field_e_exact(sphere766, default_wave(), sphere766_current, np.array([0.0, 0.0, 5e-10]))


def test_field_e_exact_reference_value(sphere766, sphere766_current, diagonal):
    x = 1.73e-6 * diagonal
    field = field_e_exact(sphere766, default_wave(), sphere766_current, x)
    assert field[0] == pytest.approx(0.9945 + 0.1045j, abs=2e-4)


def test_far_field_decay(sphere766, sphere766_current):
    wave = default_wave()
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    radii = (1e-3, 1e-2)
    scattered = []
    for r in radii:
        x = r * direction
        scattered.append(
            np.linalg.norm(field_e_exact(sphere766, wave, sphere766_current, x) - wave.field(x))
        )
    slope = np.log(scattered[1] / scattered[0]) / np.log(radii[1] / radii[0])
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_field_e_asymptotic_zero_moment_is_incident():
    wave = default_wave()
    x = np.array([1e-5, 0.0, 0.0])
    np.testing.assert_allclose(
        field_e_asymptotic(wave, np.zeros(3), np.zeros(3), x), wave.field(x)
    )


def test_field_e_asymptotic_warns_close_to_body():
    wave = default_wave()
    with pytest.warns(UserWarning, match="close"):
        field_e_asymptotic(
            wave, np.zeros(3), np.zeros(3), np.array([2e-9, 0.0, 0.0]), radius=1e-9
        )


def test_field_h_zero_moment_is_incident_curl():
    wave = default_wave()
    x = np.array([1e-6, 2e-6, 0.0])
    expected = wave.curl(x) / (1j * wave.frequency * wave.permeability)
    np.testing.assert_allclose(
        field_h(wave, np.zeros(3), np.zeros(3), x), expected, rtol=1e-14
    )


def test_field_h_matches_fd_curl_of_e(sphere766):
    wave = default_wave()
    gamma = gamma_sphere_analytic()
    q = moment_q_asymptotic(sphere766, wave, gamma)
    k = wave.wavenumber
    x = (3.0 / k) * np.array([1.0, 0.4, 0.2]) / np.linalg.norm([1.0, 0.4, 0.2])
    h_step = 1e-3 / k

    curl_fd = np.zeros(3, dtype=complex)
    for p in range(3):
        e = np.zeros(3)
        e[p] = h_step
        col = (
            field_e_asymptotic(wave, q, sphere766.center, x + e)
            - field_e_asymptotic(wave, q, sphere766.center, x - e)
        ) / (2 * h_step)
        curl_fd += np.cross(np.eye(3)[p], col)
    expected = curl_fd / (1j * wave.frequency * wave.permeability)
    computed = field_h(wave, q, sphere766.center, x)
    assert np.linalg.norm(computed - expected) / np.linalg.norm(computed) < 1e-5


def test_field_h_divergence_free(sphere766):
    wave = default_wave()
    q = moment_q_asymptotic(sphere766, wave, gamma_sphere_analytic())
    k = wave.wavenumber
    x = (3.0 / k) * np.array([0.3, 1.0, 0.5]) / np.linalg.norm([0.3, 1.0, 0.5])
    h_step = 1e-3 / k
    div = 0.0 + 0.0j
    for p in range(3):
        e = np.zeros(3)
        e[p] = h_step
        div += (
            field_h(wave, q, sphere766.center, x + e)[p]
            - field_h(wave, q, sphere766.center, x - e)[p]
        ) / (2 * h_step)
    h_mag = np.linalg.norm(field_h(wave, q, sphere766.center, x))
    assert abs(div) / (k * h_mag) < 1e-6


def test_ka_warning_when_body_large():
    wave = default_wave()
    mesh = mesh_sphere(2e-6, 4)  # k a = 0.21
    with pytest.warns(UserWarning, match="small-body"):
        assemble_one_body(mesh, wave)


def test_direct_solver_positive_path():
    mesh = mesh_sphere(1e-9, 4)
    wave = default_wave()
    op, rhs = assemble_one_body(mesh, wave)
    x = solve_direct(op.to_dense(), rhs)
    assert np.linalg.norm(op.matvec(x) - rhs) / np.linalg.norm(rhs) < 1e-10
