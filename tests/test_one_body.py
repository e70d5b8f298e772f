"""One-body boundary solver: assembly oracles, moments, gamma, fields."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import emscat.kernels as kernels
import emscat.linalg as linalg
from emscat import one_body
from emscat.geometry import CollocationMesh, mesh_cube, mesh_ellipsoid, mesh_sphere
from emscat.kernels import (CoincidentPointsError, kernel_gradient_parts, packed_entries,
                            pair_matrix, real_coupling_series)
from emscat.linalg import solve_direct
from emscat.many_body import ManyBodyOperator, layout_from_centers
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
    mirror_group,
    moment_q_asymptotic,
    moment_q_exact,
    solve_current,
    solve_currents,
    _local_frames,
)
from emscat.waves import IncidentWave, default_wave
from kernel_oracle import full_pair_matrix, green, one_shot_packed_pairs

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


# --- the mirror split ----------------------------------------------------------

#: Meshes of the split oracle: mirrors, and whether points lie on a mirror
#: plane (orbits of 2 or 4 points: the y = 0 band points, an odd-m_phi
#: equator, the face centres of an odd-n cube).
SPLIT_MESHES = {
    "sphere-12": (lambda: mesh_sphere(1e-9, 12), ("y", "z")),
    "sphere-13": (lambda: mesh_sphere(1e-9, 13), ("y", "z")),
    "ellipsoid-1052": (lambda: mesh_ellipsoid(1e-8, 1e-9, 1e-9, 14), ("y", "z")),
    "cube-9": (lambda: mesh_cube(1e-7, 9), ("x", "y", "z")),
    "cube-10": (lambda: mesh_cube(1e-7, 10), ("x", "y", "z")),
    "off-centre-sphere": (lambda: mesh_sphere(1e-9, 8, center=OFF_ORIGIN), ("z",)),
}


def pairwise_rows(mesh, k, rows):
    """Rows of the unscaled A, one green() call per pair, as in pairwise_coupling."""
    p = mesh.n_points
    a = np.zeros((len(rows), 3, p, 3), dtype=complex)
    for n, i in enumerate(rows):
        n_i = mesh.normals[i]
        for j in range(p):
            if j != i:
                grad = green(k, mesh.points[i], mesh.points[j]).gradient * mesh.weights[j]
                a[n, :, j, :] = np.outer(grad, n_i) - np.eye(3) * (grad @ n_i)
    return a.reshape(3 * len(rows), 3 * p)


@pytest.mark.parametrize("name", SPLIT_MESHES)
def test_split_operator_matches_pairwise_oracle(wave, name):
    build, mirrors = SPLIT_MESHES[name]
    mesh = build()
    op = OneBodyOperator(mesh, wave.wavenumber, scale=2.0)
    assert op.mirrors == mirrors
    # points on a mirror plane (fixed by some mirror), and others
    axes, images = mirror_group(mesh)
    fixed = np.flatnonzero(np.any(images[1:] == np.arange(mesh.n_points), axis=0))
    rng = np.random.default_rng(len(fixed))
    rows = np.union1d(rng.choice(fixed, min(8, len(fixed)), replace=False),
                      rng.choice(mesh.n_points, 8, replace=False))
    expected = np.eye(op.shape[0])[np.ravel(3 * rows[:, None] + np.arange(3))]
    expected = expected + 2.0 * pairwise_rows(mesh, wave.wavenumber, rows)
    x = rng.normal(size=(2, op.shape[0])).T @ np.array([1.0, 1j])
    dense = op.to_dense()
    row_ids = np.ravel(3 * rows[:, None] + np.arange(3))
    atol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(dense[row_ids], expected, rtol=1e-12, atol=atol)
    got = op.matvec(x)
    np.testing.assert_allclose(got[row_ids], expected @ x, rtol=1e-12,
                               atol=1e-12 * np.abs(expected @ x).max())
    # and on every row against the unsplit to_dense()
    np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12 * np.abs(dense @ x).max())


def stored_blocks(op):
    """The operator's |G| (R, R) matrices D_psi, unpacked from its upper block rows."""
    order, r = len(op._blocks[0][2]), op.orbits
    d = np.empty((order, r, r), dtype=op._packed.dtype)
    for a, b, view in op._blocks:
        d[:, a:b, a:] = view
        d[:, a:, a:b] = np.swapaxes(view, 1, 2)
    return d


@pytest.mark.parametrize("name", SPLIT_MESHES)
def test_split_stores_a_group_order_fraction_of_the_pairs(wave, name):
    mesh = SPLIT_MESHES[name][0]()
    op = OneBodyOperator(mesh, wave.wavenumber)
    order = 2 ** len(op.mirrors)
    assert stored_blocks(op).shape == (order, op.orbits, op.orbits)
    # each D_psi once, in packed upper block rows: about R^2 / 2 entries
    stored = order * packed_entries(op.orbits)
    assert op._packed.shape == (stored,)
    # orbits of fewer than |G| points, on the mirror planes, make R exceed P / |G|
    assert mesh.n_points / order <= op.orbits <= 1.3 * mesh.n_points / order
    if op.directions is None:
        # complex D: 16 B per stored pair
        assert op._packed.dtype == complex
        assert op.nbytes <= 16 * stored + 64 * mesh.n_points
    else:
        # real D at 8 B per stored pair, and the complex (R, Q) phases at the
        # orbit representatives
        assert op._packed.dtype == float
        assert op._phases.shape == (op.orbits, op.directions)
        assert op.nbytes <= 8 * stored + 16 * op.orbits * op.directions + 64 * mesh.n_points


def _nudged(mesh):
    """mesh with point 5 moved by 1e-6 of the radius along y: no mirror is left."""
    points = mesh.points.copy()
    points[5, 1] += 1e-6 * 1e-9
    return CollocationMesh(points=points, normals=mesh.normals, weights=mesh.weights,
                           volume=mesh.volume, center=mesh.center)


def test_nudged_point_leaves_the_trivial_group(wave):
    mesh = mesh_sphere(1e-9, 8)
    nudged = _nudged(mesh)
    assert mirror_group(mesh)[0] == (1, 2)
    axes, images = mirror_group(nudged)
    assert axes == () and np.array_equal(images, [np.arange(mesh.n_points)])
    op = OneBodyOperator(nudged, wave.wavenumber)
    assert op.mirrors == () and op.orbits == mesh.n_points
    # the trivial group stores C / w_j itself, real on this small body: the
    # series in (kr)^2 to degree 2, within rounding of the complex kernel's
    # real part
    assert op.directions is not None and op.series == 2
    c = full_pair_matrix(nudged.points, nudged.center,
                         lambda r: real_coupling_series(wave.wavenumber, r, 2), None)
    assert np.array_equal(stored_blocks(op), c[None])
    c_complex = pair_matrix(nudged.points, nudged.center,
                            lambda r: kernel_gradient_parts(wave.wavenumber, r)[1])
    assert np.linalg.norm(c - c_complex.real) <= 1e-15 * np.linalg.norm(c_complex.real)
    x = np.random.default_rng(4).normal(size=op.shape[0]) + 0j
    np.testing.assert_allclose(op.matvec(x), op.to_dense() @ x, rtol=1e-12, atol=1e-12)


def _wavenumber(mesh, kd):
    """The wavenumber at which k D = kd, D the diagonal of the mesh's bounding box."""
    return kd / float(np.linalg.norm(np.ptp(mesh.points, axis=0)))


def pairwise_radiative(mesh, k, j):
    """i Im A J from Im c_iso on every pair of points: N_i x sum_j i Im C_ij d x J_j."""
    x = mesh.points - mesh.center
    c = pair_matrix(mesh.points, mesh.center,
                    lambda r: kernel_gradient_parts(k, r)[1].imag, weights=mesh.weights,
                    dtype=float)
    # sum_j C_ij (x_i - x_j) x J_j = x_i x (C J)_i - (C (x x J))_i
    return 1j * np.cross(mesh.normals, np.cross(x, c @ j) - c @ np.cross(x, j))


@pytest.mark.parametrize("build, kd", [
    (lambda: _nudged(mesh_sphere(1e-9, 12)), 0.2),
    (lambda: _nudged(mesh_sphere(1e-9, 12)), 1.0),
    (lambda: mesh_sphere(1e-9, 18), 0.2),
], ids=["nudged-766-0.2", "nudged-766-1", "split-1762-0.2"])
def test_radiative_part_matches_pairwise_imaginary_coupling(build, kd):
    mesh = build()
    k = _wavenumber(mesh, kd)
    op = OneBodyOperator(mesh, k)
    assert op.directions is not None and op._packed.dtype == float
    rng = np.random.default_rng(12)
    j = rng.normal(size=(mesh.n_points, 3)) + 1j * rng.normal(size=(mesh.n_points, 3))
    expected = pairwise_radiative(mesh, k, j)
    # with the stored blocks zeroed, the matvec applies only the table, split
    # by the mirrors on the orbit representatives' phases
    op._packed[:] = 0.0
    got = op.matvec(j.reshape(-1)).reshape(-1, 3) - j
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def _one_body_at(mesh, kd):
    return OneBodyOperator(mesh, _wavenumber(mesh, kd))


def _many_body_216():
    """The dense many-body operator on 216 jittered bodies at the default k (Q = 72)."""
    rng = np.random.default_rng(6)
    grid = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = (grid * 1.5 + 1.0 + rng.uniform(-0.2, 0.2, size=grid.shape)) * 1e-7
    # volumes 1e5 radius^3: a coupling of a few percent of the identity
    layout = layout_from_centers(centers, 1e-7, 1e-9, volumes=np.full(216, 1e-22))
    return ManyBodyOperator(layout, default_wave().wavenumber, gamma_sphere_analytic())


@pytest.mark.parametrize("build", [
    lambda: _one_body_at(mesh_sphere(1e-9, 12), 0.2),
    lambda: _one_body_at(_nudged(mesh_sphere(1e-9, 12)), 0.2),
    # at k D = 1 the split sphere's Q exceeds |G| R^2 / 2 P and D stays complex
    lambda: _one_body_at(_nudged(mesh_sphere(1e-9, 12)), 1.0),
    _many_body_216,
], ids=["split-0.2", "nudged-0.2", "nudged-1", "many-body-216"])
def test_real_blocks_are_the_real_part_of_the_complex_blocks(build, monkeypatch):
    real = build()
    # real blocks are summed by the series in (kr)^2 (k D <= 1 in every
    # case), bit for bit as from the one-shot matrices of the same kernel
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "packed_pairs", one_shot_packed_pairs)
        one_shot = build()
    assert real.series is not None and real._packed.dtype == float
    assert np.array_equal(real._packed, one_shot._packed)
    # the same operator made to keep complex blocks: the rule finds too many directions
    monkeypatch.setattr(kernels, "plane_wave_directions", lambda k, x: 2**62)
    full = build()
    assert real.directions is not None and full._packed.dtype == complex
    assert full.series is None
    # and equal to the complex blocks' real part within rounding
    error = np.linalg.norm(real._packed - full._packed.real)
    assert error <= 1e-15 * np.linalg.norm(full._packed.real)
    # and the plane-wave rule carries the imaginary part of the matvec
    x = np.random.default_rng(13).normal(size=(2, real.shape[0])).T @ np.array([1.0, 1j])
    expected = full.matvec(x)
    assert np.linalg.norm(real.matvec(x) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_wide_body_and_coarse_cube_keep_complex_blocks(wave):
    # a 1 cm sphere is some 10^5 wavelengths across at the default k: the
    # rule would need far more directions than D has entries
    wide = OneBodyOperator(mesh_sphere(1.0, 8), wave.wavenumber)
    # the 600-point cube of side 2e-7 cm needs Q = 50: its table, 16 P Q,
    # would outweigh what real D saves, 8 B per stored pair
    cube = OneBodyOperator(mesh_cube(1e-7, 10), wave.wavenumber)
    for op in (wide, cube):
        assert op.directions is None and op._packed.dtype == complex
        assert not hasattr(op, "_phases")
    assert 8 * 8 * packed_entries(cube.orbits) < 16 * 600 * 50


def test_mirrors_need_equal_normals_and_weights():
    mesh = mesh_sphere(1e-9, 8)
    weights = mesh.weights.copy()
    weights[5] *= 1.0 + 1e-9
    normals = mesh.normals.copy()
    normals[7] = [0.0, 0.0, 1.0]
    for changed in ({"weights": weights}, {"normals": normals}):
        fields = {"points": mesh.points, "normals": mesh.normals, "weights": mesh.weights,
                  "volume": mesh.volume, "center": mesh.center, **changed}
        assert len(mirror_group(CollocationMesh(**fields))[0]) < 2


def _rotated(mesh, rotation):
    return CollocationMesh(points=mesh.points @ rotation.T, normals=mesh.normals @ rotation.T,
                           weights=mesh.weights, volume=mesh.volume,
                           center=rotation @ mesh.center)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_current_is_rotation_covariant(wave, scale):
    """J on a generically rotated mesh (trivial group) is R J of the split solve."""
    mesh = mesh_sphere(1e-9, 8)
    rotation, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    rotated_wave = IncidentWave(amplitude=rotation @ wave.amplitude,
                                direction=rotation @ wave.direction,
                                wavenumber=wave.wavenumber)
    tol = 1e-12
    split = solve_current(mesh, wave, tol=tol, scale=scale)
    turned = solve_current(_rotated(mesh, rotation), rotated_wave, tol=tol, scale=scale)
    assert split.operator["mirrors"] == ["y", "z"] and turned.operator["mirrors"] == []
    assert turned.report.iterations == split.report.iterations
    error = np.linalg.norm(turned.values - split.values @ rotation.T)
    assert error <= 100 * tol * np.linalg.norm(split.values)


def test_current_is_translation_invariant(wave):
    """Moving the body by t only multiplies J by the incident phase exp(ik d . t)."""
    shift = np.array([3e-9, -2e-9, 5e-9])
    tol = 1e-12
    at_origin = solve_current(mesh_sphere(1e-9, 8), wave, tol=tol)
    moved = solve_current(mesh_sphere(1e-9, 8, center=shift), wave, tol=tol)
    phase = np.exp(1j * wave.wavenumber * (wave.direction @ shift))
    error = np.linalg.norm(moved.values - phase * at_origin.values)
    assert error <= 100 * tol * np.linalg.norm(at_origin.values)


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


def test_operator_assembly_holds_c_plus_one_block(wave):
    # C is stored split by the mirror group, y and z on the sphere, real and
    # once, in packed upper block rows: 8 B per stored pair (4.1 MiB) and the
    # (R, Q) phases at the orbit representatives (0.2 MiB), plus one row
    # block of the series kernel's float temporaries, which the bound allows
    # 16 P Q (0.9 MiB) and 1.5 MiB; the full real D would take 5.9 MiB,
    # complex D 12.3 MiB and the unsplit C 47 MiB
    def assembly_peak(mesh):
        tracemalloc.start()
        try:
            op = OneBodyOperator(mesh, wave.wavenumber)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.mirrors == ("y", "z") and op.directions == 32 and op.series == 2
        return op, peak

    mesh = mesh_sphere(1e-9, 18)  # P = 1762
    op, peak = assembly_peak(mesh)
    p, r = mesh.n_points, op.orbits
    # 2.19 MiB above the packed D measured: the temporaries of a row block,
    # made before the phases
    assert peak <= 8 * 4 * packed_entries(r) + 16 * p * op.directions + 1.5 * 2**20
    # at P = 3174 (R = 801) the packed D takes 10.8 MiB and 16 P Q is 1.5
    # MiB; the slack holds the temporaries of one row block (2.62 MiB above
    # the packed D measured), but not one full (R, R) K_g (4.9 MiB) beside
    # them, nor the complex kernel's temporaries (16.0 MiB measured with them)
    mesh = mesh_sphere(1e-9, 24)
    op, peak = assembly_peak(mesh)
    p, r = mesh.n_points, op.orbits
    assert r == 801
    assert peak <= 8 * 4 * packed_entries(r) + 16 * p * op.directions + 1.5 * 2**20


def test_dense_allocations_beyond_physical_memory_are_refused(wave, monkeypatch):
    mesh = mesh_sphere(1e-9, 12)  # P = 766
    op = OneBodyOperator(mesh, wave.wavenumber)
    monkeypatch.setattr(linalg, "physical_memory", lambda: 2**20)
    for module, builder in ((kernels, "packed_pairs"), (one_body, "pair_blocks"),
                            (one_body, "pair_matrix"), (kernels, "plane_wave_rule")):
        monkeypatch.setattr(module, builder, lambda *a, **k: pytest.fail("allocated"))
    # 8 B x 4 packed_entries(197) = 4 x 197^2 pairs (one block row holds all
    # 197 rows) and 16 B x 197 x 32 phases at the orbit representatives, and
    # 200 B x 766^2 (the 144 B of the matrix and its work arrays)
    with pytest.raises(ValueError, match=r"the one-body operator needs 0\.00125 GiB"):
        OneBodyOperator(mesh, wave.wavenumber)
    with pytest.raises(ValueError, match=r"dense one-body matrix needs 0\.109 GiB"):
        op.to_dense()
    # gamma_numeric holds one block row of static distances at a time:
    # 8 B x 85 x 766 pairs with no mirror, 8 B x 197^2 pairs split
    monkeypatch.setattr(linalg, "physical_memory", lambda: 2**18)
    with pytest.raises(ValueError, match=r"static coupling matrix needs 0\.000485 GiB"):
        gamma_numeric(_nudged(mesh))
    with pytest.raises(ValueError, match=r"static coupling matrix needs 0\.000289 GiB"):
        gamma_numeric(mesh)


def test_dense_matrix_peak_is_what_its_guard_asks(wave, monkeypatch):
    op = OneBodyOperator(mesh_sphere(1e-9, 8), wave.wavenumber)  # P = 330
    asked = []
    monkeypatch.setattr(one_body, "check_dense_bytes", lambda nbytes, what: asked.append(nbytes))
    tracemalloc.start()
    try:
        op.to_dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 20.8 MiB asked; one row block of kernel temporaries on top
    assert asked == [200 * op.n_points**2]
    assert peak <= asked[0] + 2**20


def test_two_scales_solve_on_one_operator(wave, monkeypatch):
    mesh = mesh_sphere(1e-9, 8)
    near_alone = solve_current(mesh, wave, scale=2.0)
    moment_alone = solve_current(mesh, wave, scale=1.0)
    built = []
    monkeypatch.setattr(one_body, "OneBodyOperator",
                        lambda *a, **k: built.append(1) or OneBodyOperator(*a, **k))
    near, moment = solve_currents(mesh, wave, (2.0, 1.0))
    assert built == [1]
    assert np.array_equal(near.values, near_alone.values)
    # both converge to a residual of 1e-10, so agree to about that, norm-wise:
    # single entries near zero differ relatively more
    assert np.linalg.norm(moment.values - moment_alone.values) <= (
        1e-9 * np.linalg.norm(moment_alone.values))
    # one Krylov basis: fewer operator applications than two separate solves
    assert near.report is moment.report and near.report.converged
    assert near.report.iterations < near_alone.report.iterations + moment_alone.report.iterations


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_reused_operator_solves_bit_identically(wave, monkeypatch, scale):
    """The operator assembled at `scale` also serves scale 3 as a shift; the
    solve at `scale` itself is bit-identical to a fresh one-scale solve."""
    mesh = mesh_sphere(1e-9, 8)
    fresh = solve_current(mesh, wave, scale=scale)
    other_alone = solve_current(mesh, wave, scale=3.0)
    built = []
    monkeypatch.setattr(one_body, "OneBodyOperator",
                        lambda *a, **k: built.append(k["scale"]) or OneBodyOperator(*a, **k))
    reused, other = solve_currents(mesh, wave, (scale, 3.0))
    assert built == [scale]
    assert np.array_equal(reused.values, fresh.values)
    assert reused.report is other.report and reused.report.converged
    assert np.linalg.norm(other.values - other_alone.values) <= (
        1e-9 * np.linalg.norm(other_alone.values))


def lu_current(mesh, wave, scale):
    """The dense oracle's current: solve_direct on the dense boundary matrix."""
    operator, rhs = assemble_one_body(mesh, wave, scale)
    return solve_direct(operator.to_dense(), rhs).reshape(-1, 3)


def test_shifted_gmres_matches_lu_at_two_scales(wave):
    mesh = mesh_sphere(1e-9, 5)
    currents = solve_currents(mesh, wave, (2.0, 1.0), tol=1e-12)
    for current, scale in zip(currents, (2.0, 1.0)):
        expected = lu_current(mesh, wave, scale)
        assert np.linalg.norm(current.values - expected) <= 1e-9 * np.linalg.norm(expected)
    assert currents[0].report.final_residual <= 1e-12


@pytest.mark.parametrize("scales", [(), (2.0, 0.0), (np.nan,), (1.0, np.inf)])
def test_bad_scales_rejected_before_assembly(wave, monkeypatch, scales):
    def no_assembly(*args, **kwargs):
        raise AssertionError("operator assembled before the scales were checked")

    monkeypatch.setattr(one_body, "OneBodyOperator", no_assembly)
    with pytest.raises(ValueError, match="scales must be finite and non-zero"):
        solve_currents(mesh_sphere(1e-9, 4), wave, scales)


def test_zero_incident_field_gives_zero_current():
    mesh = mesh_sphere(1e-9, 4)
    wave = IncidentWave(
        amplitude=np.zeros(3), direction=np.array([0.0, 1.0, 0.0]),
        wavenumber=default_wave().wavenumber,
    )
    current = solve_current(mesh, wave)
    assert np.all(current.values == 0)


def test_nothing_to_solve_gives_zero_current_after_no_iteration():
    mesh = mesh_sphere(1e-9, 4)
    wave = IncidentWave(amplitude=np.zeros(3), direction=np.array([0.0, 1.0, 0.0]),
                        wavenumber=default_wave().wavenumber)
    near, moment = solve_currents(mesh, wave, (2.0, 1.0))
    for current in (near, moment):
        assert current.characters == () and np.all(current.values == 0)
        assert current.report.iterations == 0 and current.report.converged
        assert current.report.final_residual == 0.0


def test_non_finite_incident_field_is_refused_not_left_out(wave):
    # a NaN right-hand side must not pass for an empty one
    mesh = mesh_sphere(1e-9, 4)
    broken = SimpleNamespace(wavenumber=wave.wavenumber,
                             field=lambda x: np.where(x[:, :1] > 0, np.nan, wave.field(x)))
    with pytest.raises(ValueError, match="NaN or inf"):
        solve_current(mesh, broken)


# --- the character basis -------------------------------------------------------

@pytest.mark.parametrize("build, characters, stabilised", [
    (lambda: mesh_sphere(1e-9, 12), (2, 3), 11),
    (lambda: mesh_ellipsoid(1e-8, 1e-9, 1e-9, 14), (2, 3), 12),
    (lambda: mesh_cube(1e-7, 10), (4, 6), 0),
], ids=["sphere-766", "ellipsoid-1052", "cube-600"])
def test_default_wave_solves_only_the_characters_it_fills(wave, build, characters,
                                                          stabilised):
    mesh = build()
    current = solve_current(mesh, wave, scale=2.0)
    assert current.characters == characters
    assert current.report.converged and current.report.final_residual <= 1e-10
    op, rhs = assemble_one_body(mesh, wave, scale=2.0)
    norms = np.linalg.norm(op.to_characters(rhs), axis=(0, 2))
    # the characters left out hold rounding only
    assert np.delete(norms, characters).max() <= 1e-15 * norms.max()
    # representatives on a mirror plane with a component that their
    # character forces to zero
    basis = op.basis(characters)
    assert np.count_nonzero(np.any(basis.scale == 0, axis=(1, 2))) == stabilised


@pytest.mark.parametrize("build", [
    lambda: mesh_sphere(1e-9, 8),
    lambda: mesh_ellipsoid(1e-8, 1e-9, 1e-9, 8),
    lambda: mesh_cube(1e-7, 5),
], ids=["sphere", "ellipsoid", "cube"])
def test_character_solve_matches_the_dense_oracle(wave, build):
    mesh = build()
    current = solve_current(mesh, wave, tol=1e-12, scale=2.0)
    assert len(current.characters) < current.operator["order"]
    expected = lu_current(mesh, wave, 2.0)
    assert np.linalg.norm(current.values - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("build", [
    lambda: mesh_ellipsoid(1e-8, 1e-9, 1e-9, 8),
    lambda: mesh_cube(1e-7, 5),
], ids=["ellipsoid", "cube"])
def test_two_scale_shifted_solve_equals_two_one_scale_solves(wave, build):
    mesh = build()
    near, moment = solve_currents(mesh, wave, (2.0, 1.0))
    near_alone = solve_current(mesh, wave, scale=2.0)
    moment_alone = solve_current(mesh, wave, scale=1.0)
    assert near.characters == moment.characters == near_alone.characters
    assert moment_alone.characters == near.characters
    assert np.array_equal(near.values, near_alone.values)
    assert np.linalg.norm(moment.values - moment_alone.values) <= (
        1e-9 * np.linalg.norm(moment_alone.values))


def _tilted_wave(wave, mesh, share):
    """wave plus a tangential field at the points of mesh whose right-hand side
    lies in character 0, which wave leaves empty, with share of its |b|."""
    op = OneBodyOperator(mesh, wave.wavenumber)
    basis = op.basis((0,))
    rng = np.random.default_rng(5)
    v = rng.normal(size=(mesh.n_points, 3)) + 1j * rng.normal(size=(mesh.n_points, 3))
    t = op.to_points(op.to_characters(np.cross(mesh.normals, v), basis), basis)
    # -N x (N x t) = t for tangential t
    extra = np.cross(mesh.normals, t)
    extra *= share * np.linalg.norm(np.cross(mesh.normals, wave.field(mesh.points)))
    extra /= np.linalg.norm(t)
    return SimpleNamespace(wavenumber=wave.wavenumber,
                           field=lambda x: wave.field(x) + extra)


def test_a_character_holding_1e_13_of_the_rhs_is_solved(wave):
    mesh = mesh_sphere(1e-9, 8)
    assert solve_current(mesh, wave).characters == (2, 3)
    current = solve_current(mesh, _tilted_wave(wave, mesh, 1e-13))
    assert current.characters == (0, 2, 3)
    assert current.report.converged and current.report.final_residual <= 1e-10


def test_the_rhs_left_out_counts_in_the_final_residual(wave):
    # 1e-15 of |b| in character 0 is rounding: it is left out, and the
    # residual of the point system is at least that share
    mesh = mesh_sphere(1e-9, 8)
    current = solve_current(mesh, _tilted_wave(wave, mesh, 1e-15), tol=1e-13)
    assert current.characters == (2, 3)
    assert 0.99e-15 <= current.report.final_residual <= 1e-13


def test_basis_refuses_characters_outside_the_group(wave):
    op = OneBodyOperator(mesh_sphere(1e-9, 4), wave.wavenumber)
    for characters in ((), (4,), (3, 2), (-1, 2), (1, 1)):
        with pytest.raises(ValueError, match="characters must be increasing"):
            op.basis(characters)


def test_gmres_applies_the_operator_through_its_matvec(wave, monkeypatch):
    # a tracer that wraps OneBodyOperator.matvec sees every product of the solve
    calls = []
    matvec = OneBodyOperator.matvec
    monkeypatch.setattr(OneBodyOperator, "matvec",
                        lambda self, x, basis=None: calls.append(basis) or matvec(self, x, basis))
    current = solve_current(mesh_sphere(1e-9, 8), wave)
    assert len(calls) > current.report.iterations
    assert all(basis.characters == (2, 3) for basis in calls)


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


def test_current_scales_with_the_incident_field_to_the_bit(wave):
    """GMRES normalises its basis by |b|, so scaling E0 by a power of two
    scales every step, and J, exactly; a factor 1j swaps the real and
    imaginary parts of each complex product, whose rounding may then differ
    in the last bit of a component far below its entry's modulus."""
    mesh = mesh_sphere(1e-9, 8)
    current = solve_current(mesh, wave, scale=2.0).values

    def solve_scaled(factor):
        scaled_wave = SimpleNamespace(wavenumber=wave.wavenumber,
                                      field=lambda x: factor * wave.field(x))
        return solve_current(mesh, scaled_wave, scale=2.0).values

    assert np.array_equal(solve_scaled(2.0**-3), 2.0**-3 * current)
    np.testing.assert_allclose(solve_scaled(1j), 1j * current, rtol=1e-15, atol=0)


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
    j_direct = lu_current(mesh, wave, 1.0)
    assert (
        np.linalg.norm(j_gmres - j_direct) / np.linalg.norm(j_direct) < 1e-8
    )


def test_bad_solver_knob_rejected_before_assembly(monkeypatch, bad_knob):
    name, value = bad_knob

    def no_assembly(*args, **kwargs):
        raise AssertionError(f"operator assembled before {name} was checked")

    monkeypatch.setattr("emscat.one_body.OneBodyOperator", no_assembly)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_current(mesh_sphere(1e-9, 4), default_wave(), **{name: value})


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


#: Meshes of the split-gamma oracle and their mirror group orders: the
#: trivial group, the z mirror alone, y and z, and all three (face centres
#: on the mirror planes), each P <= 150.
GAMMA_MESHES = {
    "nudged-sphere": (lambda: _nudged(mesh_sphere(1e-9, 5)), 1),
    "off-centre-sphere": (lambda: mesh_sphere(1e-9, 5, center=OFF_ORIGIN), 2),
    "sphere": (lambda: mesh_sphere(1e-9, 5), 4),
    "cube": (lambda: mesh_cube(1e-7, 5), 8),
}


@pytest.mark.parametrize("name", GAMMA_MESHES)
def test_gamma_numeric_matches_pair_sum(name):
    build, order = GAMMA_MESHES[name]
    mesh = build()
    assert len(mirror_group(mesh)[1]) == order
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


@pytest.mark.parametrize("name", ["sphere", "ellipsoid"])
def test_gamma_numeric_is_rotation_covariant(name):
    """Lab gamma of a generically rotated mesh (trivial group) is Rot gamma Rot^T."""
    mesh = mesh_sphere(1e-9, 8) if name == "sphere" else mesh_ellipsoid(1e-8, 1e-9, 1e-9, 8)
    rotation, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    turned = _rotated(mesh, rotation)
    assert mirror_group(mesh)[0] == (1, 2) and mirror_group(turned)[0] == ()
    split = gamma_numeric(mesh, frame="lab").gamma
    expected = rotation @ split @ rotation.T
    np.testing.assert_allclose(gamma_numeric(turned, frame="lab").gamma, expected,
                               rtol=1e-12, atol=1e-12 * np.abs(split).max())


@pytest.mark.parametrize("name", ["off-centre-sphere", "sphere", "cube"])
def test_mirrors_zero_the_lab_gamma_entries_they_flip(name):
    """gamma = R_g gamma R_g: entry (p, q) vanishes when a mirror flips one of p, q."""
    mesh = GAMMA_MESHES[name][0]()
    axes = mirror_group(mesh)[0]
    gamma = gamma_numeric(mesh, frame="lab").gamma
    on_axis = np.isin(np.arange(3), axes)
    flipped = (on_axis[:, None] | on_axis) & ~np.eye(3, dtype=bool)
    assert flipped.sum() == {1: 4, 2: 6, 3: 6}[len(axes)]
    assert np.abs(gamma[flipped]).max() <= 1e-14 * np.abs(gamma).max()


def test_gamma_numeric_holds_one_static_block():
    # one real (R, R) block K_g at a time, 1.5 MiB at R = 449, plus row blocks
    # and O(P) arrays; the unsplit (P, P) matrix alone would take 23.7 MiB
    def gamma_peak(mesh):
        tracemalloc.start()
        try:
            gamma_numeric(mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return len(np.unique(mirror_group(mesh)[1].min(axis=0))), peak

    orbits, peak = gamma_peak(mesh_sphere(1e-9, 18))  # P = 1762
    assert orbits == 449
    assert peak <= 8 * orbits**2 + 4 * 2**20
    # at P = 3174 one K_g (4.9 MiB at R = 801) exceeds the 4 MiB slack, so a
    # second block held beside it fails here (7.1 MiB measured, 12.0 with two)
    orbits, peak = gamma_peak(mesh_sphere(1e-9, 24))
    assert orbits == 801
    assert peak <= 8 * orbits**2 + 4 * 2**20


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
    inside = np.array([0.0, 0.0, 5e-10])
    with pytest.raises(ValueError, match="inside"):
        field_e_exact(sphere766, default_wave(), sphere766_current, inside)
    batch = np.array([[1e-6, 1e-6, 1e-6], inside, [2e-6, 0.0, 0.0]])
    with pytest.raises(ValueError, match="inside"):
        field_e_exact(sphere766, default_wave(), sphere766_current, batch)


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
