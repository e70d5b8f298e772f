"""Direct and iterative solver behavior, including the residual contracts."""

import numpy as np
import pytest
import scipy.linalg

from emscat.linalg import (
    SingularMatrixError,
    SolveReport,
    solve_direct,
    solve_gmres,
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
    with pytest.warns(scipy.linalg.LinAlgWarning):  # scipy flags the factorization
        with pytest.raises(SingularMatrixError):
            solve_direct(a, b)


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


def test_gmres_rejects_bad_tol():
    with pytest.raises(ValueError):
        solve_gmres(lambda v: v, np.ones(3, dtype=complex), tol=0.0)


def test_solve_report_defaults():
    report = SolveReport(iterations=3, final_residual=1e-12, converged=True)
    assert report.residual_history == []
