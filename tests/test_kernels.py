"""Kernel values and derivatives against finite-difference oracles."""

import numpy as np
import pytest

from emscat.kernels import (
    CoincidentPointsError,
    green,
    moment_fields,
    pair_distances,
)

K = 2.0 * np.pi / 6.0e-5  # default experiment wavenumber, 1/cm


def fd_gradient(f, x, h):
    """Central-difference gradient oracle for a scalar field."""
    out = np.zeros(3, dtype=complex)
    for p in range(3):
        e = np.zeros(3)
        e[p] = h
        out[p] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_jacobian(f, x, h):
    """Central-difference Jacobian oracle for a vector field."""
    out = np.zeros((3, 3), dtype=complex)
    for q in range(3):
        e = np.zeros(3)
        e[q] = h
        out[:, q] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def test_static_value_r1():
    assert green(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)).value == pytest.approx(
        1.0 / (4.0 * np.pi)
    )


def test_static_value_r2():
    assert green(0.0, (2.0, 0.0, 0.0), (0.0, 0.0, 0.0)).value == pytest.approx(
        0.0397887357729738, rel=1e-12
    )


def test_value_is_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, t = rng.normal(size=3), rng.normal(size=3)
        assert green(K, x, t).value == pytest.approx(green(K, t, x).value, rel=1e-14)


def test_gradient_antisymmetric_under_swap():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, t = rng.normal(size=3) / K, rng.normal(size=3) / K
        np.testing.assert_allclose(
            green(K, x, t).gradient, -green(K, t, x).gradient, rtol=1e-13
        )


@pytest.mark.parametrize("seed", range(5))
def test_gradient_and_hessian_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        t = rng.normal(size=3) / K
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0.1, 100.0) / K
        x = t + r * direction
        h = r * 1e-5

        ker = green(K, x, t)
        grad_fd = fd_gradient(lambda y: green(K, y, t).value, x, h)
        np.testing.assert_allclose(ker.gradient, grad_fd, rtol=1e-6)
        hess_fd = fd_jacobian(lambda y: green(K, y, t).gradient, x, h)
        np.testing.assert_allclose(ker.hessian, hess_fd, rtol=1e-6, atol=np.abs(ker.hessian).max() * 1e-6)


def test_hessian_symmetric():
    ker = green(K, (1e-5, 2e-5, -0.5e-5), (0.0, 0.0, 0.0))
    np.testing.assert_allclose(ker.hessian, ker.hessian.T, rtol=1e-14)


def test_helmholtz_trace_identity():
    # trace(hessian) = -k^2 value away from the source
    t = np.zeros(3)
    x = np.array([3.0, 0.0, 0.0]) / K
    ker = green(K, x, t)
    assert np.trace(ker.hessian) == pytest.approx(-K * K * ker.value, rel=1e-10)


def test_coincident_points_raise():
    with pytest.raises(CoincidentPointsError):
        green(K, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(CoincidentPointsError):
        green(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    # guard scales with the point magnitude
    with pytest.raises(CoincidentPointsError):
        green(K, (1e8, 0.0, 0.0), (1e8 + 1e-9, 0.0, 0.0))


def test_moment_fields_matches_green_pair_sum():
    rng = np.random.default_rng(3)
    sources = rng.normal(size=(5, 3)) / K
    moments = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    x = rng.normal(size=(4, 3)) / K + 4.0 / K
    e, curl = moment_fields(K, sources, moments, x)
    for i, xi in enumerate(x):
        kers = [green(K, xi, t) for t in sources]
        e_i = sum(np.cross(ker.gradient, m) for ker, m in zip(kers, moments))
        curl_i = sum(K * K * ker.value * m + ker.hessian @ m for ker, m in zip(kers, moments))
        np.testing.assert_allclose(e[i], e_i, rtol=1e-13)
        np.testing.assert_allclose(curl[i], curl_i, rtol=1e-13)


def test_pair_distances_match_pairwise_norms():
    rng = np.random.default_rng(17)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(30, 3)) * 1e-7
    r = pair_distances(points, points.mean(axis=0))
    expected = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(r, expected, rtol=1e-8)
    with pytest.raises(CoincidentPointsError, match="points 4 and 30 are coincident"):
        pair_distances(np.vstack([points, points[4]]), points.mean(axis=0))
