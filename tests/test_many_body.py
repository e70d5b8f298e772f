"""Coupled-moment system: layout, assembly oracles, fields, error bound."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import emscat.kernels as kernels
import emscat.many_body as many_body
from emscat.kernels import kernel_hessian_parts, moment_fields, real_coupling_series
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
from emscat.waves import IncidentWave, default_wave
from kernel_oracle import green, pair_distances

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


def write_centers_csv(path, layout):
    """centers.csv as `emscat many-body` writes it: a # line, header, .16g rows."""
    rows = [",".join(f"{v:.16g}" for v in (*c, vol))
            for c, vol in zip(layout.centers, layout.volumes)]
    path.write_text("\n".join(["# config: {}", "x,y,z,volume", *rows]) + "\n")


def heavy(layout):
    """layout with each volume 1e5 radius^3, far above a sphere's."""
    return replace(layout, volumes=np.full(layout.count, 1e5 * layout.radius**3))


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


def test_empty_layout_rejected():
    with pytest.raises(ValueError, match="at least 1 center, got 0"):
        lattice_layout(0, 1e-7, 1e-9)
    with pytest.raises(ValueError, match="got 0"):
        layout_from_centers(np.empty((0, 3)), spacing=1e-7, radius=1e-9)


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


def brute_min_distance(centers):
    """Smallest distance over all ordered pairs of distinct indices."""
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    return d[~np.eye(len(centers), dtype=bool)].min()


def spacing_check_centers(name):
    rng = np.random.default_rng(3)
    if name == "plane":  # x = 3e-7 for all, widest along z
        return np.insert(rng.uniform(0.0, 1.0, (256, 2)) * [4e-6, 9e-6], 0, 3e-7, axis=1)
    if name == "line":  # along y, unsorted
        return np.insert(rng.uniform(0.0, 1e-5, (200, 1)), [0, 1], [2e-7, 5e-7], axis=1)
    if name == "duplicate":
        centers = jittered_centers(3)
        centers[5] = centers[17]
        return centers
    return jittered_centers(int(name.split("-")[1]))


@pytest.mark.parametrize("name", ["jittered-3", "jittered-9", "plane", "line", "duplicate"])
def test_min_pairwise_distance_equals_brute_force(name):
    centers = spacing_check_centers(name)
    if name == "plane":
        assert np.ptp(centers, axis=0).argmax() == 2
    if name == "line":
        assert not np.ptp(centers[:, [0, 2]], axis=0).any()
    assert many_body._min_pairwise_distance(centers) == brute_min_distance(centers)


@pytest.mark.parametrize("scale", [0.999, 1.0])
def test_pair_at_the_spacing_passes_and_closer_is_refused(scale):
    centers = jittered_centers(3)
    centers = np.vstack([centers, centers[-1] + [scale * SPACING, 0.0, 0.0]])
    if scale < 1.0:
        with pytest.raises(ValueError, match="below spacing"):
            layout_from_centers(centers, spacing=SPACING, radius=1e-9)
        return
    layout = layout_from_centers(centers, spacing=SPACING, radius=1e-9)
    assert layout.grid is None
    assert many_body._min_pairwise_distance(centers) == pytest.approx(SPACING, rel=1e-14)


def test_non_finite_center_rejected():
    # before the check, NaN comparisons made this layout a 4 x 1 x 1 grid
    centers = [[1e-7, 1e-7, 1e-7], [2e-7, 1e-7, 1e-7], [1e-7, 3e-7, 1e-7],
               [np.nan, 1e-7, 4e-7]]
    with pytest.raises(ValueError, match=r"layout centers must be finite.* at center 3$"):
        layout_from_centers(centers, spacing=SPACING, radius=1e-9)


@pytest.mark.parametrize("bad", [np.inf, -1e-27])
def test_non_finite_or_negative_volume_rejected(bad):
    volumes = np.full(27, 1e-27)
    volumes[4] = bad
    with pytest.raises(ValueError, match=r"layout volumes must be finite.* at center 4$"):
        layout_from_centers(jittered_centers(3), spacing=SPACING, radius=1e-9,
                            volumes=volumes)


def test_grid_detected_from_centers(tmp_path):
    layout = lattice_layout(27, SPACING, 1e-9)
    assert layout.grid == LatticeGrid(counts=(3, 3, 3), steps=(SPACING,) * 3)
    path = tmp_path / "centers.csv"
    write_centers_csv(path, layout)
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
    write_centers_csv(path, layout)
    back = layout_from_csv(path, spacing=1e-7, radius=1e-9)
    np.testing.assert_allclose(back.centers, layout.centers, rtol=1e-15)
    np.testing.assert_allclose(back.volumes, layout.volumes, rtol=1e-15)


def test_layout_csv_volume_column_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("x,y,z\n0,0,0\n1e-7,0,0\n")
    layout = layout_from_csv(path, spacing=1e-7, radius=1e-9)
    assert layout.count == 2
    np.testing.assert_allclose(layout.volumes, 4.0 / 3.0 * np.pi * 1e-27, rtol=1e-12)



def test_layout_csv_without_rows_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# config: {}\nx,y,z,volume\n")
    with pytest.raises(ValueError, match="empty.csv holds no center rows"):
        layout_from_csv(path, spacing=1e-7, radius=1e-9)


@pytest.mark.parametrize("text, line, message", [
    ("# config: {}\ny,z,volume\n0,0,1e-27\n", 2, "no x column in the header"),
    ("# config: {}\nx,y,z,volume\n0,0,0,1e-27\n1e-7,0\n", 4, "short row, no z cell"),
    ("x,y,z,volume\n0,0,0,1e-27\n\n1e-7,0,0,\n", 4, "volume cell '' is not a number"),
], ids=["missing-column", "short-row", "blank-cell"])
def test_layout_csv_names_the_file_and_line_of_a_bad_row(tmp_path, text, line, message):
    path = tmp_path / "centers.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        layout_from_csv(path, spacing=1e-7, radius=1e-9)
    assert str(err.value) == f"{path} line {line}: {message}"


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
    # heavy volumes make the coupling a few percent of the identity, so the
    # comparison is not dominated by the identity part of the operator
    lambda: heavy(lattice_layout(27, SPACING, 1e-9)),
    lambda: heavy(lattice_layout(216, SPACING, 1e-9)),
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


#: (n, dtype) of the two dense branches on n^3 jittered bodies at the default
#: wave: 27 bodies need more plane-wave directions than bodies and keep
#: complex coefficients, 216 need fewer and store real ones plus the
#: plane-wave table.  The tests of the dense path loop over both.
DENSE_BRANCHES = [(3, complex), (6, float)]


def test_jittered_layout_takes_dense_path(wave):
    for n, dtype in DENSE_BRANCHES:
        layout = heavy(layout_from_centers(jittered_centers(n), spacing=SPACING, radius=1e-9))
        operator, _ = assemble_many_body(layout, wave, SKEW_GAMMA)
        assert (operator.coupling, operator._packed.dtype) == ("dense", dtype)
        rng = np.random.default_rng(4)
        x = rng.normal(size=3 * n**3) + 1j * rng.normal(size=3 * n**3)
        np.testing.assert_allclose(operator.matvec(x), operator.to_dense() @ x, rtol=1e-12)


def unequal_volume_layout(shift=0.0, n=3):
    """Jittered n^3-body layout with unequal volumes, moved by shift cm per axis.

    The centres are whole multiples of 2^-53 cm, so adding a shift below
    0.5 cm is exact and the shifted layout has the same pairwise differences.
    """
    centers = np.round(jittered_centers(n, seed=7) * 2.0**53) / 2.0**53
    volumes = np.random.default_rng(7).uniform(0.5, 2.0, size=n**3) * 1e-22
    return layout_from_centers(centers + shift, spacing=SPACING, radius=1e-9,
                               volumes=volumes)


def test_dense_coefficients_equal_full_construction(wave, monkeypatch):
    k = wave.wavenumber
    for n, dtype in DENSE_BRANCHES:
        layout = unequal_volume_layout(n=n)
        m = layout.count
        # 4 rows per block: many row blocks, the last one ragged
        monkeypatch.setattr(kernels, "PAIR_BLOCK_BYTES", 8 * m * 4)
        operator = ManyBodyOperator(layout, k, SKEW_GAMMA)
        r = pair_distances(layout.centers, layout.centers.mean(axis=0))
        g, c_iso, c_dir = kernel_hessian_parts(k, r)
        # the stored isotropic part is c_iso, unweighted; k^2 g + c_iso comes
        # from the trace identity in the matvec, the volumes from its columns
        expected = np.stack([c_iso, c_dir])
        for part in expected:
            np.fill_diagonal(part, 0.0)
        if dtype is float:
            # the real branch sums the real parts as series in (kr)^2, within
            # rounding of the complex kernel's; the plane-wave table carries
            # the imaginary ones
            assert operator.series == 5  # k D = 0.14
            series = np.stack(real_coupling_series(k, r, operator.series, hessian=True))
            for part, other in zip(series, expected.real):
                np.fill_diagonal(part, 0.0)
                assert np.linalg.norm(part - other) <= 1e-15 * np.linalg.norm(other)
            expected = series
        assert operator._packed.dtype == dtype
        # the upper block rows tile the buffer in order, 4 rows each
        bounds = [(a, b) for a, b, _ in operator._blocks]
        assert bounds == [(a, min(m, a + 4)) for a in range(0, m, 4)]
        assert operator._packed.size == sum(view.size for _, _, view in operator._blocks)
        offset = 0
        for a, b, view in operator._blocks:
            assert np.shares_memory(view, operator._packed[offset:offset + view.size])
            assert np.array_equal(view, expected[:, a:b, a:])
            offset += view.size


def test_dense_operator_beyond_physical_memory_is_refused(wave, monkeypatch):
    import emscat.linalg as linalg

    for n, dtype in DENSE_BRANCHES:
        layout = unequal_volume_layout(n=n)
        m = layout.count
        # the packed upper block rows of S_iso and S2, and on the real branch
        # the (M, Q) complex phases: the bytes the operator allocates
        operator = ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA)
        need = operator._packed.nbytes
        if dtype is complex:
            assert need == 32 * kernels.packed_entries(m)
        else:
            q = operator._phases.shape[1]
            assert need == 16 * kernels.packed_entries(m)
            need += 16 * m * q
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "physical_memory", lambda: need - 1)
            patch.setattr(kernels, "packed_pairs", lambda *a, **k: pytest.fail("allocated"))
            patch.setattr(kernels, "plane_wave_rule", lambda *a, **k: pytest.fail("allocated"))
            with pytest.raises(ValueError, match="the dense many-body operator needs"):
                ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA)
            # and the exact need passes the guard
            patch.setattr(linalg, "physical_memory", lambda: need)
            with pytest.raises(pytest.fail.Exception, match="allocated"):
                ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA)


def test_dense_matrix_beyond_physical_memory_is_refused(wave, monkeypatch):
    import emscat.linalg as linalg

    # the (81, 81) complex matrix of 27 bodies, 16 B x 81^2, and its work
    # arrays, 232 B x 27^2 in all, are refused on either coupling before
    # to_dense() evaluates any pair
    lattice, scattered = lattice_layout(27, SPACING, 1e-9), unequal_volume_layout()
    dense = ManyBodyOperator(scattered, wave.wavenumber, SKEW_GAMMA)
    monkeypatch.setattr(linalg, "physical_memory", lambda: 16 * 81**2 - 1)
    monkeypatch.setattr(many_body, "pair_matrix", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=r"the dense many-body matrix needs 0\.000158 GiB"):
        assemble_many_body(lattice, wave, SKEW_GAMMA)[0].to_dense()
    with pytest.raises(ValueError, match="the dense many-body matrix needs"):
        dense.to_dense()


def test_dense_matrix_peak_is_what_its_guard_asks(wave, monkeypatch):
    operator = ManyBodyOperator(unequal_volume_layout(n=6), wave.wavenumber, SKEW_GAMMA)
    asked = []
    monkeypatch.setattr(many_body, "check_dense_bytes", lambda nbytes, what: asked.append(nbytes))
    tracemalloc.start()
    try:
        operator.to_dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 10.3 MiB asked for 216 bodies; one row block of kernel temporaries on top
    assert asked == [232 * operator.count**2]
    assert peak <= asked[0] + 2**20


def test_dense_matvec_centred_far_from_origin(wave):
    # 0.5 cm is 5e6 spacings: an expansion of x_m - x_j in raw coordinates
    # would cancel to about 1e-3 here, and so would plane-wave phases
    # k s.x_m taken in raw coordinates
    for n, dtype in DENSE_BRANCHES:
        near, far = unequal_volume_layout(n=n), unequal_volume_layout(shift=0.5, n=n)
        rng = np.random.default_rng(8)
        x = rng.normal(size=3 * n**3) + 1j * rng.normal(size=3 * n**3)
        results = []
        for layout in (near, far):
            operator, _ = assemble_many_body(layout, wave, SKEW_GAMMA)
            assert (operator.coupling, operator._packed.dtype) == ("dense", dtype)
            y = operator.matvec(x)
            assert np.linalg.norm(y - x) > 1e-2 * np.linalg.norm(x)
            np.testing.assert_allclose(y, operator.to_dense() @ x, rtol=1e-12)
            results.append(y)
        np.testing.assert_allclose(results[1], results[0], rtol=1e-12)


def test_dense_operator_holds_two_scalar_matrices(wave):
    layout = layout_from_centers(jittered_centers(10), spacing=SPACING, radius=1e-9)
    m = layout.count
    tracemalloc.start()
    try:
        operator = ManyBodyOperator(layout, wave.wavenumber, gamma_sphere_analytic())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (operator.coupling, operator._packed.dtype) == ("dense", float)
    q = operator._phases.shape[1]
    assert q < m
    # real S_iso and S2 in packed upper block rows, 4 B per pair each plus
    # half a block row, the complex (M, Q) phases, the centres, directions,
    # weights and tau: no (M, M) array
    rows = operator._blocks[0][1]
    assert operator.nbytes <= 8 * m * (m + rows) + 16 * m * q + 64 * m
    # the operator plus one row block of kernel temporaries
    assert peak <= 8 * m * (m + rows) + 16 * m * q + 16 * 2**20


#: k L of the radiative-part oracles, L the largest side of the layout's box.
RADIATIVE_KL = [0.2, 1.0, 3.0]


def radiative_layout():
    """512 jittered bodies: fewer plane-wave directions than bodies up to k L = 3."""
    return heavy(layout_from_centers(jittered_centers(8), spacing=SPACING, radius=1e-9))


def radiative_wavenumber(layout, kl):
    return kl / np.ptp(layout.centers, axis=0).max()


@pytest.mark.parametrize("kl", RADIATIVE_KL)
def test_dense_radiative_part_matches_full_construction(kl):
    layout = radiative_layout()
    operator = ManyBodyOperator(layout, radiative_wavenumber(layout, kl), SKEW_GAMMA)
    assert operator._packed.dtype == float
    # on a real vector the identity and the stored real parts are real, so
    # the imaginary part of the matvec is the plane-wave part alone
    x = np.random.default_rng(9).normal(size=3 * layout.count)
    y, expected = operator.matvec(x).imag, (operator.to_dense() @ x).imag
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("kl", RADIATIVE_KL)
def test_dense_radiative_field_at_centers_matches_pair_sum(kl):
    layout = radiative_layout()
    k = radiative_wavenumber(layout, kl)
    operator = ManyBodyOperator(layout, k, SKEW_GAMMA)
    assert operator._packed.dtype == float
    a = np.random.default_rng(10).normal(size=(layout.count, 3))
    q = -layout.volumes[:, None] * a
    expected = np.array([
        moment_fields(k, np.delete(layout.centers, m, axis=0), np.delete(q, m, axis=0), x)[0]
        for m, x in enumerate(layout.centers)
    ]).imag
    field = operator.scattered_at_centers(a).imag
    assert np.linalg.norm(field - expected) <= 1e-12 * np.linalg.norm(expected)


def test_wide_layout_keeps_complex_coefficients(wave):
    # 216 bodies 10 um apart: k D is about 300, and the plane-wave rule would
    # need some 10^5 directions, far more than bodies
    layout = layout_from_centers(jittered_centers(6) * 1e2, spacing=1e2 * SPACING,
                                 radius=1e-9)
    operator = ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA)
    assert (operator.coupling, operator._packed.dtype) == ("dense", complex)
    assert not hasattr(operator, "_phases")


def test_solution_records_the_plane_wave_directions(wave):
    # real coefficients on 512 bodies, complex on 27, none on a lattice
    layouts = (radiative_layout(), unequal_volume_layout(), lattice_layout(27, SPACING, 1e-9))
    for layout in layouts:
        operator = ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA)
        solution = solve_effective_field(layout, wave, SKEW_GAMMA)
        assert solution.operator["directions"] == operator.directions
        if hasattr(operator, "_phases"):
            assert operator.directions == operator._phases.shape[1] < layout.count
    assert [ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA).directions is None
            for layout in layouts] == [False, True, True]


@pytest.mark.parametrize("factor, directions", [(1.0, True), (30.0, False)],
                         ids=["real", "complex"])
def test_solution_is_rotation_covariant(wave, factor, directions):
    """Rotating the layout, the wave and gamma rotates Q and the field at the centres.

    tau is not isotropic, so the rotated system takes R gamma R^T.  At the
    default k both layouts store real coefficients, each with its own
    plane-wave rule; at 30 times that k both keep complex ones.
    """
    rotation, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    rotation *= np.linalg.det(rotation)  # proper, so that curl E0 rotates too
    k = factor * wave.wavenumber
    box = ((-1.0,) * 3, (1.0,) * 3)
    layout = heavy(layout_from_centers(jittered_centers(6), SPACING, 1e-9, box=box))
    turned = replace(layout, centers=layout.centers @ rotation.T)
    gamma = GammaMatrix.from_gamma(rotation @ SKEW_GAMMA.gamma @ rotation.T)
    solution = solve_effective_field(
        layout, IncidentWave(amplitude=wave.amplitude, direction=wave.direction, wavenumber=k),
        SKEW_GAMMA, tol=1e-13)
    rotated = solve_effective_field(
        turned, IncidentWave(amplitude=rotation @ wave.amplitude,
                             direction=rotation @ wave.direction, wavenumber=k),
        gamma, tol=1e-13)
    rules = [s.operator["directions"] for s in (solution, rotated)]
    assert (turned.grid, rules[0] is not None) == (None, directions)
    assert directions == (rules[0] != rules[1])  # two different rules agree
    for name in ("q_values", "scattered_at_centers"):
        expected = getattr(solution, name) @ rotation.T
        error = np.linalg.norm(getattr(rotated, name) - expected)
        assert error <= 1e-12 * np.linalg.norm(expected), name


def test_sphere_tau_scales_pair_blocks_row_wise(wave):
    # the sphere gamma is diagonal, so applying the whole tau scales row p of
    # every coupling block by tau(p, p)
    layout = heavy(lattice_layout(8, 1e-7, 1e-9))
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

def test_bad_solver_knob_rejected_before_assembly(wave, monkeypatch, bad_knob):
    name, value = bad_knob

    def no_assembly(*args, **kwargs):
        raise AssertionError(f"operator assembled before {name} was checked")

    monkeypatch.setattr("emscat.many_body.ManyBodyOperator", no_assembly)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_effective_field(lattice_layout(8, 1e-7, 1e-9), wave, gamma_sphere_analytic(),
                              **{name: value})


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


def hand_built_solution(layout, wave, q):
    """A solution with moments q, as a solve would return it.

    It carries the field at the centres that the operator forms: by FFT on
    a grid layout, from the dense coupling matrices otherwise.
    """
    a = -q / layout.volumes[:, None]
    scattered = ManyBodyOperator(layout, wave.wavenumber, SKEW_GAMMA).scattered_at_centers(a)
    return EffectiveFieldSolution(
        a_values=a, q_values=q, report=SolveReport(0, 0.0, True), wave=wave,
        scattered_at_centers=scattered, centers=layout.centers,
    )


@pytest.mark.parametrize("make_layout", [
    grid_345_layout,
    lambda: layout_from_centers(jittered_centers(4)[:60], spacing=SPACING, radius=1e-9),
    # far from the origin relative to its size: an expansion of x_m - x_j in
    # raw coordinates cancels catastrophically here
    lambda: layout_from_centers(
        jittered_centers(4)[:60] + (0.3, 0.4, 0.5), spacing=SPACING, radius=1e-9),
    # twice as far apart, Q = 98: complex coefficients, where the two above
    # store real ones with the plane-wave table
    lambda: layout_from_centers(jittered_centers(4)[:60] * 2.0, spacing=2.0 * SPACING,
                                radius=1e-9),
], ids=["grid-3x4x5", "jittered", "jittered-shifted", "jittered-sparse"])
def test_effective_field_at_centers_matches_pair_sum(wave, make_layout):
    layout = make_layout()
    assert layout.count == 60
    rng = np.random.default_rng(6)
    # moments sized so that the scattered field is comparable to the incident one
    q = (rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))) * 1e-13
    solution = hand_built_solution(layout, wave, q)
    expected = wave.field(layout.centers)
    for m, x in enumerate(layout.centers):
        for j, t in enumerate(layout.centers):
            if j != m:
                expected[m] += np.cross(green(wave.wavenumber, x, t).gradient, q[j])
    assert np.linalg.norm(expected - wave.field(layout.centers)) > 0.1 * np.sqrt(60)
    np.testing.assert_allclose(
        effective_field_at_centers(layout, wave, solution), expected, rtol=1e-12
    )


def assert_solution_without_field_at_centers_rejected(layout, wave):
    solution = solve_effective_field(layout, wave, SKEW_GAMMA)
    assert solution.scattered_at_centers is not None
    with pytest.raises(ValueError, match="carries no field at the centres"):
        effective_field_at_centers(layout, wave, replace(solution, scattered_at_centers=None))


def test_dense_solution_without_field_at_centers_rejected(wave):
    assert_solution_without_field_at_centers_rejected(unequal_volume_layout(), wave)


def test_grid_solution_without_field_at_centers_rejected(wave):
    assert_solution_without_field_at_centers_rejected(grid_345_layout(), wave)


def test_effective_field_at_centers_rejects_another_layout(many27, wave):
    _, solution = many27
    with pytest.raises(ValueError, match="layout has 8 centres but the solution 27 moments"):
        effective_field_at_centers(lattice_layout(8, 1e-7, 1e-9), wave, solution)


#: Each field of the default wave changed on its own, and the message naming it.
OTHER_WAVES = {
    "wavenumber": (dict(wavenumber=2.0 * default_wave().wavenumber),
                   "wave has wavenumber 209439.510239 but the solution was solved "
                   "at 104719.75512"),
    "amplitude": (dict(amplitude=np.array([0.0, 0.0, 1.0])),
                  "wave has amplitude 0, 0, 1 but the solution was solved at 1, 0, 0"),
    "direction": (dict(direction=np.array([0.0, 0.0, 1.0])),
                  "wave has direction 0, 0, 1 but the solution was solved at 0, 1, 0"),
    "frequency": (dict(frequency=1e15),
                  "wave has frequency 1e[+]15 but the solution was solved at 5e[+]14"),
    "permeability": (dict(permeability=2.0),
                     "wave has permeability 2 but the solution was solved at 1"),
}

#: The three many-body field functions, each taking (layout, wave, solution).
FIELD_FUNCTIONS = {
    "effective_field_at_centers": effective_field_at_centers,
    "field_e_many": lambda *args: field_e_many(*args, np.array([5e-7, 5e-7, 5e-7])),
    "field_h_many": lambda *args: field_h_many(*args, np.array([5e-7, 5e-7, 5e-7])),
}


#: The field functions and error_estimate_many, each taking (layout, wave, solution).
SOLUTION_FUNCTIONS = {
    **FIELD_FUNCTIONS,
    "error_estimate_many": lambda layout, wave, solution: error_estimate_many(
        layout, solution, np.array([5e-7, 5e-7, 5e-7])),
}

#: Two layouts of 27 centres each, the second refused for a solve on the first,
#: and the start of the message naming the first centre that differs.
OTHER_CENTRES = {
    "grid": (lambda: (lattice_layout(27, 1e-7, 1e-9), lattice_layout(27, 2e-7, 1e-9)),
             "solved on other centres: 26 of 27 differ, first centre 1 at "
             r"\[1e-07, 0.0, 0.0\] against \[2e-07, 0.0, 0.0\]"),
    "jittered": (lambda: tuple(layout_from_centers(jittered_centers(3, seed=seed),
                                                   spacing=SPACING, radius=1e-9)
                               for seed in (1, 2)),
                 "solved on other centres: 27 of 27 differ, first centre 0 at"),
}


@pytest.mark.parametrize("function", sorted(SOLUTION_FUNCTIONS))
@pytest.mark.parametrize("pair", sorted(OTHER_CENTRES))
def test_solution_functions_reject_other_centres_of_the_same_count(wave, pair, function):
    # without the check a grid solution came back on another grid, 1.3% off
    make_pair, message = OTHER_CENTRES[pair]
    first, second = make_pair()
    solution = solve_effective_field(first, wave, gamma_sphere_analytic())
    with pytest.raises(ValueError, match=message):
        SOLUTION_FUNCTIONS[function](second, wave, solution)


@pytest.mark.parametrize("function", sorted(FIELD_FUNCTIONS))
@pytest.mark.parametrize("field", sorted(OTHER_WAVES))
def test_field_functions_reject_another_wave(many27, wave, field, function):
    # without the check the x solve's moments came back under another wave
    layout, solution = many27
    changes, message = OTHER_WAVES[field]
    with pytest.raises(ValueError, match=message):
        FIELD_FUNCTIONS[function](layout, replace(wave, **changes), solution)


def test_effective_field_at_centers_rejects_other_centres_of_the_same_count(wave):
    first, second = (layout_from_centers(jittered_centers(3, seed=seed), spacing=SPACING,
                                         radius=1e-9) for seed in (1, 2))
    solution = solve_effective_field(first, wave, gamma_sphere_analytic())
    assert (first.grid, second.grid, solution.operator["coupling"]) == (None, None, "dense")
    with pytest.raises(ValueError, match="solved on other centres: 27 of 27 differ, "
                                         "first centre 0 at"):
        effective_field_at_centers(second, wave, solution)
    # without the check the first layout's field came back as the second's
    own = solve_effective_field(second, wave, gamma_sphere_analytic())
    incident = wave.field(second.centers)
    carried = effective_field_at_centers(second, wave, replace(solution, centers=None))
    scattered = effective_field_at_centers(second, wave, own) - incident
    gap = np.linalg.norm(carried - incident - scattered) / np.linalg.norm(scattered)
    assert gap == pytest.approx(0.117, abs=1e-3)


def test_dense_solve_and_fields_take_one_pass_over_the_pairs(wave, monkeypatch):
    kernels_of_a_pass = ("kernel_hessian_parts", "kernel_gradient_parts", "real_coupling_series")

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for n, dtype in DENSE_BRANCHES:
        calls = dict.fromkeys(("pair_blocks",) + kernels_of_a_pass, 0)
        with monkeypatch.context() as patch:
            for module in (kernels, many_body):
                for name in calls:
                    if hasattr(module, name):
                        patch.setattr(module, name, counting(name, getattr(module, name)))
            layout = unequal_volume_layout(n=n)
            solution = solve_effective_field(layout, wave, SKEW_GAMMA)
            effective_field_at_centers(layout, wave, solution)
        assert solution.operator["coupling"] == "dense"
        assert calls["pair_blocks"] == 1
        if dtype is complex:
            # the gradient stage runs only inside the Hessian kernel of that one pass
            assert solution.operator["series"] is None
            assert calls["kernel_gradient_parts"] == calls["kernel_hessian_parts"] > 0
            assert calls["real_coupling_series"] == 0
        else:
            # the real branch's pass (one block row of 216) sums the series
            # once, and no complex kernel runs
            assert solution.operator["series"] == 5
            assert calls["real_coupling_series"] == 1
            assert calls["kernel_gradient_parts"] == calls["kernel_hessian_parts"] == 0


def test_dense_path_matches_fft_path_off_the_grid(wave):
    # moving one centre by 1e-11 of the largest coordinate takes the layout
    # off the grid (GRID_RTOL is 1e-13) and changes the coupling by ~1e-10;
    # centre 23 has no neighbour in +x, so no pair comes closer
    grid = heavy(lattice_layout(64, SPACING, 1e-9))
    centers = grid.centers.copy()
    centers[23, 0] += 1e-11 * np.abs(centers).max()
    moved = replace(grid, centers=centers)
    gamma = gamma_sphere_analytic()
    fft = solve_effective_field(grid, wave, gamma, tol=1e-13)
    dense = solve_effective_field(moved, wave, gamma, tol=1e-13)
    assert (fft.operator["coupling"], dense.operator["coupling"]) == ("fft", "dense")
    np.testing.assert_allclose(dense.q_values, fft.q_values, rtol=1e-8)
    incident = wave.field(grid.centers)
    scattered = effective_field_at_centers(grid, wave, fft) - incident
    assert np.linalg.norm(scattered) > 1e-4 * np.linalg.norm(incident)
    np.testing.assert_allclose(
        effective_field_at_centers(moved, wave, dense) - wave.field(centers), scattered,
        rtol=1e-8)


def test_lattice_32_cubed_has_no_quadratic_allocation(wave):
    tracemalloc.start()
    try:
        layout = lattice_layout(32**3, SPACING, 1e-9)
        solution = solve_effective_field(layout, wave, gamma_sphere_analytic())
        fields = effective_field_at_centers(layout, wave, solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.operator["coupling"] == "fft"
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
    batch = np.vstack([[5e-7, 5e-7, 5e-7], layout.centers[4]])
    with pytest.raises(ValueError, match="field evaluation at a particle center"):
        field_e_many(layout, default_wave(), solution, batch)


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
    k = wave.wavenumber
    kers = [green(k, x, center) for center in layout.centers]
    curl_scattered = sum(
        k * k * ker.value * q + ker.hessian @ q for ker, q in zip(kers, solution.q_values)
    )
    expected = (wave.curl(x) + curl_scattered) / (1j * wave.frequency * wave.permeability)
    np.testing.assert_allclose(field_h_many(layout, wave, solution, x), expected, rtol=1e-12)


def test_field_h_many_rejects_center(many27):
    layout, solution = many27
    with pytest.raises(ValueError, match="center"):
        field_h_many(layout, default_wave(), solution, layout.centers[4])
    batch = np.vstack([[5e-7, 5e-7, 5e-7], layout.centers[4]])
    with pytest.raises(ValueError, match="field evaluation at a particle center"):
        field_h_many(layout, default_wave(), solution, batch)


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
