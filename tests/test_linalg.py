"""Direct and iterative solver behavior, including the residual contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import emscat.linalg
from emscat import (
    gamma_sphere_analytic,
    lattice_layout,
    mesh_ellipsoid,
    mesh_sphere,
    solve_current,
    solve_effective_field,
)
from emscat.linalg import (
    ConvergenceError,
    SingularMatrixError,
    SolveReport,
    _back_substitute,
    solve_direct,
    solve_gmres,
    solve_operator,
)


def random_system(n, seed, dominance=0.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a += dominance * n * np.eye(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b


def test_direct_identity():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    np.testing.assert_allclose(solve_direct(np.eye(3), b), b)


@pytest.mark.parametrize("seed", range(3))
def test_direct_residual(seed):
    a, b = random_system(50, seed, dominance=1.0)
    x = solve_direct(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


def test_direct_rejects_zero_row():
    a, b = random_system(10, 0)
    a[3, :] = 0.0
    with pytest.raises(SingularMatrixError):
        solve_direct(a, b)


def test_direct_rejects_near_singular_column():
    # R's diagonal entry is rounding-sized (about 2e-15), not exactly zero
    a, b = random_system(10, 0)
    a[:, 4] *= 1e-15
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        solve_direct(a, b)


def test_direct_solves_several_right_hand_sides_as_one_each():
    a, b = random_system(20, 1, dominance=1.0)
    rhs = np.stack([b, 2j * b[::-1]], axis=1)
    x = solve_direct(a, rhs)
    assert x.shape == rhs.shape
    for column in range(2):
        np.testing.assert_allclose(x[:, column], solve_direct(a, rhs[:, column]), rtol=1e-13)


def test_direct_rejects_non_square():
    with pytest.raises(ValueError):
        solve_direct(np.ones((3, 2)), np.ones(3))


def test_gmres_identity_converges_immediately():
    b = np.arange(1.0, 7.0) + 1j
    x, report = solve_gmres(lambda v: v, b)
    np.testing.assert_allclose(x, b, rtol=1e-12)
    assert report.converged
    assert report.iterations <= 1


def test_gmres_zero_rhs():
    x, report = solve_gmres(lambda v: v, np.zeros(5, dtype=complex))
    assert np.all(x == 0)
    assert report.converged and report.iterations == 0


@pytest.mark.parametrize("seed", range(3))
def test_gmres_agrees_with_direct(seed):
    a, b = random_system(100, seed, dominance=1.0)
    x_direct = solve_direct(a, b)
    x_gmres, report = solve_gmres(lambda v: a @ v, b, tol=1e-12, restart=30)
    assert report.converged
    assert (
        np.linalg.norm(x_gmres - x_direct) / np.linalg.norm(x_direct) <= 1e-8
    )


def test_gmres_respects_restart_and_converges():
    a, b = random_system(60, 4, dominance=1.0)
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-11, restart=7, max_iter=500)
    assert report.converged
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-11


def test_gmres_nonconvergence_is_flagged_not_raised():
    a, b = random_system(40, 5)  # not diagonally dominant
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-14, restart=3, max_iter=6)
    assert not report.converged
    assert report.iterations == 6
    assert report.final_residual > 1e-14


def test_gmres_residual_history_non_increasing_within_cycle():
    a, b = random_system(80, 6, dominance=0.5)
    _, report = solve_gmres(lambda v: a @ v, b, tol=1e-12, restart=10)
    hist = report.residual_history
    assert len(hist) >= 2
    # split history into restart cycles of length <= 10
    for start in range(0, len(hist), 10):
        cycle = hist[start : start + 10]
        assert all(nxt <= prev * (1 + 1e-12) for prev, nxt in zip(cycle, cycle[1:]))


def test_gmres_final_residual_matches_recomputation():
    a, b = random_system(50, 7, dominance=1.0)
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-10)
    recomputed = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert abs(report.final_residual - recomputed) <= 1e-12


@pytest.mark.parametrize("restart", [50, 7])
def test_gmres_applies_operator_once_per_iteration_and_restart(restart):
    a, b = random_system(60, 8, dominance=1.0)
    calls = []

    def apply_a(v):
        calls.append(1)
        return a @ v

    _, report = solve_gmres(apply_a, b, tol=1e-11, restart=restart)
    assert report.converged
    # from x = 0 the start residual is b itself; each restart cycle ends
    # with one true-residual matvec, reused as final_residual
    cycles = -(-report.iterations // restart)
    assert len(calls) == report.iterations + cycles
    if restart == 50:
        assert len(calls) == report.iterations + 1


def test_gmres_rejects_non_finite_rhs_before_any_matvec():
    calls = []

    def apply_a(v):
        calls.append(1)
        return v

    b = np.ones(30, dtype=complex)
    b[17] = np.nan
    with pytest.raises(ValueError, match="NaN or inf"):
        solve_gmres(apply_a, b)
    assert calls == []


def test_gmres_stops_at_first_non_finite_residual_estimate():
    calls = []

    def apply_a(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    x, report = solve_gmres(apply_a, np.ones(30, dtype=complex))
    assert len(calls) == 1
    assert not report.converged
    assert np.isnan(report.final_residual)
    assert report.iterations == 1
    np.testing.assert_array_equal(x, 0.0)


# --- shifted systems (A + sigma I) x = b on one Krylov basis ----------------

#: A zero shift, one that converges faster, one slower and a complex one.
SHIFTS = (0.0, 20.0, -30.0, 15.0 + 10.0j)


def shifted(a, sigma):
    return a + sigma * np.eye(len(a))


@pytest.mark.parametrize("restart", [50, 3])
def test_shifted_zero_row_is_the_unshifted_solve(restart):
    a, b = random_system(60, 9, dominance=1.0)
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-11, restart=restart, shifts=SHIFTS)
    single, single_report = solve_gmres(lambda v: a @ v, b, tol=1e-11, restart=restart)
    assert x.shape == (len(SHIFTS), 60)
    assert np.array_equal(x[0], single)
    assert report.converged and single_report.converged


@pytest.mark.parametrize("restart", [50, 3])
def test_shifted_rows_match_direct_solves(restart):
    a, b = random_system(60, 9, dominance=1.0)
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-12, restart=restart, shifts=SHIFTS)
    assert report.converged
    residuals = []
    for sigma, row in zip(SHIFTS, x):
        expected = solve_direct(shifted(a, sigma), b)
        assert np.linalg.norm(row - expected) <= 1e-9 * np.linalg.norm(expected), sigma
        residuals.append(np.linalg.norm(shifted(a, sigma) @ row - b) / np.linalg.norm(b))
    assert max(residuals) <= 1e-12
    assert abs(report.final_residual - max(residuals)) <= 1e-13


def test_shifts_share_one_arnoldi_process():
    a, b = random_system(60, 9, dominance=1.0)
    calls = []

    def apply_a(v):
        calls.append(1)
        return a @ v

    _, report = solve_gmres(apply_a, b, tol=1e-11, shifts=SHIFTS)
    separate = [solve_gmres(lambda v, s=s: a @ v + s * v, b, tol=1e-11)[1].iterations
                for s in SHIFTS]
    # one cycle, about as long as the slowest shift's own solve, then one
    # true residual per shift
    assert max(separate) <= report.iterations < sum(separate)
    assert len(calls) == report.iterations + len(SHIFTS)


def test_shifts_restart_alone_and_converge():
    a, b = random_system(60, 9, dominance=1.0)
    calls = []

    def apply_a(v):
        calls.append(1)
        return a @ v

    x, report = solve_gmres(apply_a, b, tol=1e-11, restart=3, shifts=SHIFTS)
    assert report.converged
    assert report.iterations > 3  # every shift needed more than the shared cycle
    for sigma, row in zip(SHIFTS, x):
        assert np.linalg.norm(shifted(a, sigma) @ row - b) <= 1e-11 * np.linalg.norm(b)
    # each cycle of 3 steps ends with one true residual per shift it served
    assert len(calls) > report.iterations + len(SHIFTS)


def test_shifted_nonconvergence_is_flagged_at_max_iter():
    a, b = random_system(40, 5)  # not diagonally dominant
    x, report = solve_gmres(lambda v: a @ v, b, tol=1e-14, restart=3, max_iter=6,
                            shifts=(0.0, 1.0))
    single, single_report = solve_gmres(lambda v: a @ v, b, tol=1e-14, restart=3, max_iter=6)
    assert not report.converged
    assert report.iterations == 6
    assert report.final_residual >= single_report.final_residual > 1e-14
    assert x.shape == (2, 40)


def test_shifted_solve_rejects_non_finite_rhs_before_any_matvec():
    calls = []

    def apply_a(v):
        calls.append(1)
        return v

    b = np.ones(30, dtype=complex)
    b[17] = np.inf
    with pytest.raises(ValueError, match="NaN or inf"):
        solve_gmres(apply_a, b, shifts=(0.0, 1.0))
    assert calls == []


def test_shifted_solve_stops_at_first_non_finite_estimate():
    calls = []

    def apply_a(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    x, report = solve_gmres(apply_a, np.ones(30, dtype=complex), shifts=(0.0, 1.0, -2.0))
    assert len(calls) == 1
    assert not report.converged
    assert np.isnan(report.final_residual)
    assert report.iterations == 1
    assert x.shape == (3, 30)
    np.testing.assert_array_equal(x, 0.0)


def test_shifted_solve_of_zero_rhs_is_zero():
    x, report = solve_gmres(lambda v: v, np.zeros(5, dtype=complex), shifts=(0.0, 1.0))
    assert x.shape == (2, 5) and np.all(x == 0)
    assert report.converged and report.iterations == 0


@pytest.mark.parametrize("shifts", [(), [], (0.0, np.nan), (np.inf,), [[0.0, 1.0]]])
def test_bad_shifts_rejected_before_any_matvec(shifts):
    calls = []

    def apply_a(v):
        calls.append(1)
        return v

    with pytest.raises(ValueError, match="shifts"):
        solve_gmres(apply_a, np.ones(4, dtype=complex), shifts=shifts)
    assert calls == []


class DenseOperator:
    def __init__(self, a):
        self.a = a

    def matvec(self, v):
        return self.a @ v


def test_solve_operator_passes_shifts():
    a, b = random_system(40, 3, dominance=1.0)
    x, report = solve_operator(DenseOperator(a), b, tol=1e-12, shifts=(0.0, 2.5))
    unshifted, _ = solve_operator(DenseOperator(a), b, tol=1e-12)
    assert np.array_equal(x[0], unshifted)
    expected = solve_direct(shifted(a, 2.5), b)
    assert np.linalg.norm(x[1] - expected) <= 1e-9 * np.linalg.norm(expected)
    assert report.converged and report.final_residual <= 1e-12


def test_shifted_gmres_stall_raises_convergence_error():
    a, b = random_system(40, 5)
    with pytest.raises(ConvergenceError, match="boundary solve stalled") as info:
        solve_operator(DenseOperator(a), b, tol=1e-14, restart=3, max_iter=6,
                       what="boundary", shifts=(0.0, 1.0))
    assert info.value.report.iterations == 6


def test_back_substitution_matches_scipy_bit_for_bit(monkeypatch, wave, sphere766, cube600):
    triangles = {}

    def recorded(case):
        def record(r, g):
            triangles.setdefault(case, []).append((r.copy(), g.copy()))
            return _back_substitute(r, g)
        monkeypatch.setattr(emscat.linalg, "_back_substitute", record)

    recorded("sphere-766")
    solve_current(sphere766, wave)
    recorded("sphere-766 scale 2")
    solve_current(sphere766, wave, scale=2.0)
    recorded("cube-600")
    solve_current(cube600, wave)
    recorded("ellipsoid")
    solve_current(mesh_ellipsoid(1e-8, 1e-9, 1e-9, 6), wave)
    recorded("lattice-1000")
    solve_effective_field(lattice_layout(1000, 1e-7, 1e-9), wave, gamma_sphere_analytic())
    recorded("restart 3")
    solve_current(mesh_sphere(1e-9, 6), wave, restart=3)

    assert len(triangles) == 6
    assert len(triangles["restart 3"]) >= 2  # several restart cycles
    for case, cycles in triangles.items():
        for r, g in cycles:
            expected = scipy.linalg.solve_triangular(r, g, check_finite=False)
            assert np.array_equal(_back_substitute(r, g), expected), (case, len(g))


@pytest.mark.parametrize("n", [1, 2, 5, 17, 50])
def test_back_substitution_solves_random_triangles(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    # a real diagonal, as GMRES's Givens rotations leave it: the same bits as scipy
    r = upper + np.diag(n + rng.random(n))
    assert np.array_equal(_back_substitute(r, g), scipy.linalg.solve_triangular(r, g))
    # a complex diagonal: numpy and LAPACK form the reciprocal differently
    r = upper + np.diag(n + rng.random(n) + 1j * rng.random(n))
    expected = scipy.linalg.solve_triangular(r, g)
    np.testing.assert_allclose(_back_substitute(r, g), expected, rtol=1e-13)


def test_back_substitution_rejects_zero_diagonal():
    r = np.triu(np.ones((4, 4), dtype=complex))
    r[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        _back_substitute(r, np.ones(4, dtype=complex))


def test_gmres_zero_operator_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_gmres(np.zeros_like, np.ones(6, dtype=complex))


ISOLATION_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or of a submodule now fails
import numpy as np
import emscat

def scipy_modules():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("scipy") and module is not None)

wave = emscat.default_wave()
current = emscat.solve_current(emscat.mesh_sphere(1e-9, 4), wave)
assert current.report.converged
emscat.solve_effective_field(
    emscat.lattice_layout(27, 1e-7, 1e-9), wave, emscat.gamma_sphere_analytic())
jittered = emscat.lattice_layout(27, 1.5e-7, 1e-9).centers + 1e-7
jittered += np.random.default_rng(0).uniform(-2e-8, 2e-8, jittered.shape)
layout = emscat.layout_from_centers(jittered, 1e-7, 1e-9)
assert layout.grid is None
emscat.solve_effective_field(layout, wave, emscat.gamma_sphere_analytic())
assert scipy_modules() == [], scipy_modules()

operator, rhs = emscat.assemble_one_body(emscat.mesh_sphere(1e-9, 4), wave)
direct = emscat.solve_direct(operator.to_dense(), rhs).reshape(-1, 3)
assert scipy_modules() == [], scipy_modules()
error = abs(direct - current.values).max() / abs(direct).max()
assert error < 1e-8, error
"""


def test_import_and_gmres_solves_load_no_scipy():
    # a fresh interpreter: this one has scipy loaded already
    src = str(Path(emscat.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", ISOLATION_SCRIPT], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_gmres_rejects_bad_tol():
    with pytest.raises(ValueError):
        solve_gmres(lambda v: v, np.ones(3, dtype=complex), tol=0.0)


def test_solve_report_defaults():
    report = SolveReport(iterations=3, final_residual=1e-12, converged=True)
    assert report.residual_history == []
