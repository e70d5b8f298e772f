"""Coupled-moment system: layout, assembly oracles, fields, error bound."""

import tracemalloc

import numpy as np
import pytest

from emscat.kernels import curl_dipole_term, green
from emscat.linalg import SolveReport
from emscat.many_body import (
    EffectiveFieldSolution,
    LatticeGrid,
    ManyBodyLayout,
    ManyBodyOperator,
    assemble_many_body,
    effective_field_at_centers,
    error_estimate_many,
    field_e_many,
    field_h_many,
    lattice_layout,
    layout_from_centers,
    layout_from_csv,
    solve_effective_field,
)
from emscat.one_body import (
    GammaMatrix,
    field_h,
    gamma_sphere_analytic,
    moment_q_asymptotic,
)
from emscat.waves import default_wave

SPACING = 1e-7

#: A gamma with off-diagonal entries, so that applying the whole tau differs
#: from scaling each row by its diagonal entry.
SKEW_GAMMA = GammaMatrix.from_gamma(
    np.array([[-0.3, 0.05, 0.02], [0.01, -0.25, 0.03], [0.04, 0.02, 0.15]])
)


def jittered_centers(n, seed=0):
    """n^3 centers on a 1.5-spacing grid moved by up to 0.2 spacing per axis."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3) * 1.5 + 1.0
    return (grid + rng.uniform(-0.2, 0.2, size=grid.shape)) * SPACING


def grid_345_layout():
    """Non-cubic 3 x 4 x 5 grid, x fastest, unequal steps and volumes."""
    steps = np.array([1.0, 1.5, 2.0]) * SPACING
    zz, yy, xx = np.meshgrid(np.arange(5), np.arange(4), np.arange(3), indexing="ij")
    centers = 1e-7 + np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1) * steps
    volumes = np.random.default_rng(5).uniform(0.5, 2.0, size=60) * 1e-22
    return layout_from_centers(centers, SPACING, 1e-9, volumes=volumes)


# --- layout ------------------------------------------------------------------

def test_lattice_counts_and_spacing():
    layout = lattice_layout(27, 1e-7, 1e-9)
    assert layout.count == 27
    diffs = layout.centers[:, None, :] - layout.centers[None, :, :]
    dist = np.linalg.norm(diffs, axis=-1)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() == pytest.approx(1e-7, rel=1e-12)


def test_lattice_ordering_x_fastest():
    layout = lattice_layout(27, 1e-7, 1e-9)
    np.testing.assert_allclose(layout.centers[0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(layout.centers[1], [1e-7, 0.0, 0.0])
    np.testing.assert_allclose(layout.centers[3], [0.0, 1e-7, 0.0])
    np.testing.assert_allclose(layout.centers[9], [0.0, 0.0, 1e-7])


def test_lattice_1000():
    layout = lattice_layout(1000, 1e-7, 1e-8)
    assert layout.count == 1000


def test_single_particle_at_anchor():
    layout = lattice_layout(1, 1e-7, 1e-9, box=((0.1, 0.2, 0.3), (1.1, 1.2, 1.3)))
    np.testing.assert_allclose(layout.centers[0], [0.1, 0.2, 0.3])


def test_non_cubic_count_rejected():
    with pytest.raises(ValueError, match="perfect cube"):
        lattice_layout(26, 1e-7, 1e-9)


def test_lattice_must_fit_in_box():
    with pytest.raises(ValueError, match="fit"):
        lattice_layout(27, 0.6, 1e-9)


def test_overlapping_bodies_rejected():
    with pytest.raises(ValueError, match="overlap"):
        lattice_layout(8, 1e-7, 2e-7)


def test_spacing_violation_rejected():
    with pytest.raises(ValueError, match="below spacing"):
        layout_from_centers(
            [[0.0, 0.0, 0.0], [1e-8, 0.0, 0.0]], spacing=1e-7, radius=1e-9
        )


def test_jittered_pair_below_spacing_rejected():
    centers = jittered_centers(4)
    centers[1] = centers[0] + np.array([0.5 * SPACING, 0.0, 0.0])
    with pytest.raises(ValueError, match="below spacing"):
        layout_from_centers(centers, spacing=SPACING, radius=1e-9)


def test_grid_detected_from_centers(tmp_path):
    layout = lattice_layout(27, SPACING, 1e-9)
    assert layout.grid == LatticeGrid(counts=(3, 3, 3), steps=(SPACING,) * 3)
    path = tmp_path / "centers.csv"
    layout.to_csv(path)
    assert layout_from_csv(path, spacing=SPACING, radius=1e-9).grid.counts == (3, 3, 3)
    again = layout_from_centers(layout.centers, spacing=SPACING, radius=1e-9)
    assert again.grid.counts == (3, 3, 3)
    grid = grid_345_layout().grid
    assert grid.counts == (3, 4, 5)
    np.testing.assert_allclose(grid.steps, np.array([1.0, 1.5, 2.0]) * SPACING, rtol=1e-14)


def test_grid_not_detected_off_lattice():
    layout = lattice_layout(27, SPACING, 1e-9)
    z_fastest = layout.centers.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(-1, 3)
    assert layout_from_centers(z_fastest, spacing=SPACING, radius=1e-9).grid is None
    incomplete = layout.centers[:-1]
    assert layout_from_centers(incomplete, spacing=SPACING, radius=1e-9).grid is None
    assert layout_from_centers(jittered_centers(3), spacing=SPACING, radius=1e-9).grid is None


def test_ratio_warning():
    with pytest.warns(UserWarning, match="asymptotic regime"):
        lattice_layout(8, 1e-7, 5e-8)


def test_layout_csv_roundtrip(tmp_path):
    layout = lattice_layout(8, 1e-7, 1e-9)
    path = tmp_path / "centers.csv"
    layout.to_csv(path)
    back = layout_from_csv(path, spacing=1e-7, radius=1e-9)
    np.testing.assert_allclose(back.centers, layout.centers, rtol=1e-15)
    np.testing.assert_allclose(back.volumes, layout.volumes, rtol=1e-15)


def test_layout_csv_volume_column_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("x,y,z\n0,0,0\n1e-7,0,0\n")
    layout = layout_from_csv(path, spacing=1e-7, radius=1e-9)
    assert layout.count == 2
    np.testing.assert_allclose(layout.volumes, 4.0 / 3.0 * np.pi * 1e-27, rtol=1e-12)


def test_solution_csv_export(tmp_path, many27):
    _, solution = many27
    path = tmp_path / "solution.csv"
    solution.to_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 28
    first = lines[1].split(",")
    assert complex(float(first[1]), float(first[2])) == pytest.approx(
        solution.a_values[0, 0]
    )
    assert complex(float(first[7]), float(first[8])) == pytest.approx(
        solution.q_values[0, 0]
    )


# --- assembly ----------------------------------------------------------------

def test_single_body_has_no_coupling(wave):
    layout = lattice_layout(1, 1e-7, 1e-9)
    gamma = gamma_sphere_analytic()
    operator, rhs = assemble_many_body(layout, wave, gamma)
    x = np.array([1.0 + 1j, 2.0, -3.0j])
    np.testing.assert_allclose(operator.matvec(x), x, rtol=1e-15)
    np.testing.assert_allclose(rhs, gamma.tau @ wave.curl(layout.centers[0]), rtol=1e-14)


def test_two_body_static_block_hand_check():
    """k = 0 coupling block must reduce to tau_pp |D| hess g0."""
    layout = layout_from_centers(
        [[0.0, 0.0, 0.0], [3e-7, 0.0, 0.0]], spacing=3e-7, radius=1e-9
    )
    gamma = gamma_sphere_analytic()
    operator = ManyBodyOperator(layout, wavenumber=0.0, gamma=gamma)
    dense = operator.to_dense()
    hess = green(0.0, layout.centers[0], layout.centers[1]).hessian
    expected = np.diag(gamma.tau).real[:, None] * hess * layout.volumes[1]
    np.testing.assert_allclose(dense[0:3, 3:6], expected, rtol=1e-13)
    np.testing.assert_allclose(dense[0:3, 0:3], np.eye(3), atol=1e-15)


def test_matvec_matches_dense(wave):
    layout = lattice_layout(8, 1e-7, 1e-9)
    operator, _ = assemble_many_body(layout, wave, gamma_sphere_analytic())
    dense = operator.to_dense()
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.normal(size=24) + 1j * rng.normal(size=24)
        np.testing.assert_allclose(operator.matvec(x), dense @ x, rtol=1e-13)


@pytest.mark.parametrize("make_layout", [
    # volume_coeff makes the coupling a few percent of the identity, so the
    # comparison is not dominated by the identity part of the operator
    lambda: lattice_layout(27, SPACING, 1e-9, volume_coeff=1e5),
    lambda: lattice_layout(216, SPACING, 1e-9, volume_coeff=1e5),
    grid_345_layout,
], ids=["lattice-27", "lattice-216", "grid-3x4x5"])
def test_fft_matvec_matches_dense(wave, make_layout):
    layout = make_layout()
    operator, _ = assemble_many_body(layout, wave, SKEW_GAMMA)
    assert operator.coupling == "fft"
    dense = operator.to_dense()
    rng = np.random.default_rng(3)
    x = rng.normal(size=3 * layout.count) + 1j * rng.normal(size=3 * layout.count)
    y = dense @ x
    assert np.linalg.norm(y - x) > 1e-2 * np.linalg.norm(x)
    np.testing.assert_allclose(operator.matvec(x), y, rtol=1e-12)


def test_jittered_layout_takes_dense_path(wave):
    layout = layout_from_centers(jittered_centers(3), spacing=SPACING, radius=1e-9,
                                 volume_coeff=1e5)
    operator, _ = assemble_many_body(layout, wave, SKEW_GAMMA)
    assert operator.coupling == "dense"
    rng = np.random.default_rng(4)
    x = rng.normal(size=81) + 1j * rng.normal(size=81)
    np.testing.assert_allclose(operator.matvec(x), operator.to_dense() @ x, rtol=1e-12)


def test_sphere_tau_scales_pair_blocks_row_wise(wave):
    # the sphere gamma is diagonal, so applying the whole tau scales row p of
    # every coupling block by tau(p, p)
    layout = lattice_layout(8, 1e-7, 1e-9, volume_coeff=1e5)
    gamma = gamma_sphere_analytic()
    dense = assemble_many_body(layout, wave, gamma)[0].to_dense()
    k = wave.wavenumber
    expected = np.eye(24, dtype=complex)
    for m, x in enumerate(layout.centers):
        for j, t in enumerate(layout.centers):
            if j != m:
                ker = green(k, x, t)
                block = (k * k * ker.value * np.eye(3) + ker.hessian) * layout.volumes[j]
                expected[3 * m:3 * m + 3, 3 * j:3 * j + 3] = np.diag(gamma.tau)[:, None] * block
    np.testing.assert_allclose(dense, expected, rtol=1e-12, atol=1e-15)


def test_coincident_centers_rejected(wave):
    layout = ManyBodyLayout.__new__(ManyBodyLayout)  # bypass validation
    object.__setattr__(layout, "centers", np.zeros((2, 3)))
    object.__setattr__(layout, "radius", 1e-9)
    object.__setattr__(layout, "spacing", 1e-7)
    object.__setattr__(layout, "volumes", np.ones(2))
    object.__setattr__(layout, "box", ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="coincident"):
        ManyBodyOperator(layout, wave.wavenumber, gamma_sphere_analytic())


# --- solving -----------------------------------------------------------------

def test_unknown_method_rejected(wave):
    with pytest.raises(ValueError, match="unknown method 'lu'"):
        solve_effective_field(lattice_layout(8, 1e-7, 1e-9), wave, gamma_sphere_analytic(),
                              method="lu")


def test_moments_tied_to_a_values(many27):
    layout, solution = many27
    np.testing.assert_array_equal(
        solution.q_values, -layout.volumes[:, None] * solution.a_values
    )


def test_coupling_vanishes_as_bodies_shrink(wave):
    gamma = gamma_sphere_analytic()
    gaps = []
    for radius in (1e-8, 1e-9, 1e-10):
        layout = lattice_layout(27, 1e-7, radius)
        _, rhs = assemble_many_body(layout, wave, gamma)
        solution = solve_effective_field(layout, wave, gamma, tol=1e-13)
        a0 = rhs.reshape(-1, 3)
        gaps.append(
            np.linalg.norm(solution.a_values - a0) / np.linalg.norm(a0)
        )
    assert gaps[0] > gaps[1] > gaps[2]
    # coupling scales like radius^3
    assert gaps[0] / gaps[1] == pytest.approx(1e3, rel=0.05)


def test_effective_field_norm_m27(many27):
    layout, solution = many27
    fields = effective_field_at_centers(layout, default_wave(), solution)
    assert np.linalg.norm(fields) == pytest.approx(np.sqrt(27.0), abs=1e-3)
    # first center sits at zero incident phase
    assert abs(fields[0, 0] - 1.0) < 1e-6
    assert abs(fields[0, 2]) <= 1e-12 * np.linalg.norm(fields)


@pytest.mark.parametrize("make_layout", [
    grid_345_layout,
    lambda: layout_from_centers(jittered_centers(4)[:60], spacing=SPACING, radius=1e-9),
    # far from the origin relative to its size: an expansion of x_m - x_j in
    # raw coordinates cancels catastrophically here
    lambda: layout_from_centers(
        jittered_centers(4)[:60] + (0.3, 0.4, 0.5), spacing=SPACING, radius=1e-9),
], ids=["grid-3x4x5", "jittered", "jittered-shifted"])
def test_effective_field_at_centers_matches_pair_sum(wave, make_layout):
    layout = make_layout()
    assert layout.count == 60
    rng = np.random.default_rng(6)
    # moments sized so that the scattered field is comparable to the incident one
    q = (rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))) * 1e-13
    solution = EffectiveFieldSolution(
        a_values=-q / layout.volumes[:, None], q_values=q,
        report=SolveReport(0, 0.0, True), wave=wave,
    )
    expected = wave.field(layout.centers)
    for m, x in enumerate(layout.centers):
        for j, t in enumerate(layout.centers):
            if j != m:
                expected[m] += np.cross(green(wave.wavenumber, x, t).gradient, q[j])
    assert np.linalg.norm(expected - wave.field(layout.centers)) > 0.1 * np.sqrt(60)
    np.testing.assert_allclose(
        effective_field_at_centers(layout, wave, solution), expected, rtol=1e-12
    )


def test_lattice_32_cubed_has_no_quadratic_allocation(wave):
    tracemalloc.start()
    try:
        layout = lattice_layout(32**3, SPACING, 1e-9)
        solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
        fields = effective_field_at_centers(layout, wave, solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.coupling == "fft"
    assert np.all(np.isfinite(fields))
    assert peak < 300 * 2**20


def test_effective_field_mirror_antisymmetry(many27):
    layout, solution = many27
    fields = effective_field_at_centers(layout, default_wave(), solution)
    e_y = fields[:, 1].reshape(3, 3, 3)  # (z, y, x) with x fastest
    np.testing.assert_allclose(
        e_y, -e_y[:, :, ::-1], atol=1e-20
    )


def test_field_e_many_zero_moments(wave):
    layout = lattice_layout(8, 1e-7, 1e-9)
    solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
    zeroed = type(solution)(
        a_values=solution.a_values,
        q_values=np.zeros_like(solution.q_values),
        report=solution.report,
        wave=wave,
    )
    x = np.array([5e-7, 5e-7, 5e-7])
    np.testing.assert_allclose(field_e_many(layout, wave, zeroed, x), wave.field(x))


def test_field_e_many_superposition(many27):
    layout, solution = many27
    wave = default_wave()
    x = np.array([5e-7, 5e-7, 5e-7])
    base = field_e_many(layout, wave, solution, x)
    doubled = type(solution)(
        a_values=solution.a_values,
        q_values=2.0 * solution.q_values,
        report=solution.report,
        wave=wave,
    )
    e2 = field_e_many(layout, wave, doubled, x)
    scattered = base - wave.field(x)
    # atol covers the cancellation noise of subtracting the O(1) incident part
    np.testing.assert_allclose(
        e2 - wave.field(x), 2.0 * scattered, rtol=1e-12, atol=1e-14,
    )


def test_field_e_many_rejects_center(many27):
    layout, solution = many27
    with pytest.raises(ValueError, match="center"):
        field_e_many(layout, default_wave(), solution, layout.centers[4])


# --- error estimate ----------------------------------------------------------

def test_error_estimate_reference_value(many27):
    layout, solution = many27
    probe = layout.centers[-1] + np.array([1e-7, 0.0, 0.0])
    assert error_estimate_many(layout, solution, probe) == pytest.approx(
        8.16e-10, rel=0.02
    )


def test_error_estimate_zero_for_vanishing_bodies(wave):
    layout = lattice_layout(27, 1e-7, 0.0)
    solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
    probe = layout.centers[-1] + np.array([1e-7, 0.0, 0.0])
    assert error_estimate_many(layout, solution, probe) == 0.0


def test_error_estimate_scales_as_fourth_power(wave):
    gamma = gamma_sphere_analytic()
    errs = []
    radii = (1e-8, 1e-9, 1e-10, 1e-11)
    for radius in radii:
        layout = lattice_layout(27, 1e-7, radius)
        solution = solve_effective_field(layout, wave, gamma)
        probe = layout.centers[-1] + np.array([1e-7, 0.0, 0.0])
        errs.append(error_estimate_many(layout, solution, probe))
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.1)


def test_norm_stable_across_radius_sweep(wave):
    gamma = gamma_sphere_analytic()
    norms = []
    for radius in (1e-8, 1e-9, 1e-10):
        layout = lattice_layout(27, 1e-7, radius)
        solution = solve_effective_field(layout, wave, gamma)
        norms.append(np.linalg.norm(effective_field_at_centers(layout, wave, solution)))
    assert max(norms) - min(norms) < 1e-3 * norms[0]


# --- magnetic field ----------------------------------------------------------

def test_field_h_many_zero_moments(wave):
    layout = lattice_layout(8, 1e-7, 1e-9)
    solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
    zeroed = type(solution)(
        a_values=solution.a_values,
        q_values=np.zeros_like(solution.q_values),
        report=solution.report,
        wave=wave,
    )
    x = np.array([5e-7, 5e-7, 5e-7])
    expected = wave.curl(x) / (1j * wave.frequency * wave.permeability)
    np.testing.assert_allclose(field_h_many(layout, wave, zeroed, x), expected)


def test_field_h_many_single_particle_matches_one_body(wave):
    layout = lattice_layout(1, 1e-7, 1e-9)
    solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
    x = np.array([3e-5, 1e-5, -2e-5])
    h_many = field_h_many(layout, wave, solution, x)
    h_one = field_h(wave, solution.q_values[0], layout.centers[0], x)
    np.testing.assert_allclose(h_many, h_one, rtol=1e-12)


def test_field_h_many_matches_per_center_sum(many27):
    layout, solution = many27
    wave = default_wave()
    x = layout.centers[-1] + np.array([SPACING, 0.3 * SPACING, 0.0])
    curl_scattered = sum(
        curl_dipole_term(wave.wavenumber, x, center, q)
        for center, q in zip(layout.centers, solution.q_values)
    )
    expected = (wave.curl(x) + curl_scattered) / (1j * wave.frequency * wave.permeability)
    np.testing.assert_allclose(field_h_many(layout, wave, solution, x), expected, rtol=1e-12)


def test_field_h_many_rejects_center(many27):
    layout, solution = many27
    with pytest.raises(ValueError, match="center"):
        field_h_many(layout, default_wave(), solution, layout.centers[4])


def test_field_h_many_matches_fd_curl(many27):
    layout, solution = many27
    wave = default_wave()
    k = wave.wavenumber
    x = np.array([3.0, 1.0, 2.0]) / k
    h_step = 1e-3 / k
    curl_fd = np.zeros(3, dtype=complex)
    for p in range(3):
        e = np.zeros(3)
        e[p] = h_step
        col = (
            field_e_many(layout, wave, solution, x + e)
            - field_e_many(layout, wave, solution, x - e)
        ) / (2 * h_step)
        curl_fd += np.cross(np.eye(3)[p], col)
    expected = curl_fd / (1j * wave.frequency * wave.permeability)
    computed = field_h_many(layout, wave, solution, x)
    assert np.linalg.norm(computed - expected) / np.linalg.norm(computed) < 1e-5


# --- reduction to one body ---------------------------------------------------

def test_single_particle_reproduces_one_body_moment(wave, sphere766):
    layout = lattice_layout(1, 1e-7, 1e-9)
    gamma = gamma_sphere_analytic()
    solution = solve_effective_field(layout, wave, gamma, tol=1e-12)
    q_one = moment_q_asymptotic(sphere766, wave, gamma)
    # same radius, same formula; the lattice anchor only shifts the phase
    phase = np.exp(1j * wave.wavenumber * (wave.direction @ layout.centers[0]))
    np.testing.assert_allclose(solution.q_values[0], q_one * phase, rtol=1e-8)
