"""Property tests of the point-moment field sum (linearity, additivity over
sources and translation invariance) and of the real coupling series (its
accuracy against mpmath, its degree rule and its fallback past k D = 1), on
generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import emscat.kernels as kernels  # noqa: E402
from emscat.geometry import CollocationMesh, mesh_sphere  # noqa: E402
from emscat.kernels import kernel_gradient_parts, moment_fields  # noqa: E402
from emscat.one_body import OneBodyOperator  # noqa: E402
from kernel_oracle import one_shot_packed_pairs  # noqa: E402

K = 2.0 * np.pi / 6.0e-5  # default experiment wavenumber, 1/cm

unit = st.floats(-1.0, 1.0)
#: Sources in the cube [-1, 1]^3 / K, points in [2, 4]^3 / K: at least 1 / K apart.
sources = st.integers(1, 6).flatmap(lambda m: arrays(float, (m, 3), elements=unit))
points = arrays(float, st.tuples(st.integers(0, 4), st.just(3)), elements=st.floats(2.0, 4.0))
scalars = st.complex_numbers(max_magnitude=10.0)


def moments_for(data, m):
    re = data.draw(arrays(float, (m, 3), elements=unit))
    im = data.draw(arrays(float, (m, 3), elements=unit))
    return re + 1j * im


def assert_fields_close(actual, expected, scale, rtol):
    for a, e in zip(actual, expected):
        np.testing.assert_allclose(a, e, rtol=rtol, atol=rtol * scale)


def magnitude(fields):
    return max(float(np.abs(f).max(initial=0.0)) for f in fields)


@given(sources, points, scalars, scalars, st.data())
def test_linear_in_moments(s, x, a, b, data):
    s, x = s / K, x / K
    m1, m2 = moments_for(data, len(s)), moments_for(data, len(s))
    f1, f2 = moment_fields(K, s, m1, x), moment_fields(K, s, m2, x)
    combined = moment_fields(K, s, a * m1 + b * m2, x)
    expected = [a * u + b * v for u, v in zip(f1, f2)]
    scale = (abs(a) + abs(b)) * max(magnitude(f1), magnitude(f2))
    assert_fields_close(combined, expected, scale, rtol=1e-12)


@given(sources, points, st.data())
def test_additive_over_source_sets(s, x, data):
    s, x = s / K, x / K
    m = moments_for(data, len(s))
    split = data.draw(st.integers(0, len(s)))
    whole = moment_fields(K, s, m, x)
    first = moment_fields(K, s[:split], m[:split], x)
    second = moment_fields(K, s[split:], m[split:], x)
    expected = [u + v for u, v in zip(first, second)]
    scale = max(magnitude(first), magnitude(second))
    assert_fields_close(whole, expected, scale, rtol=1e-12)


@given(sources, points, arrays(float, 3, elements=st.floats(-10.0, 10.0)), st.data())
def test_translation_invariant(s, x, shift, data):
    s, x, shift = s / K, x / K, shift / K
    m = moments_for(data, len(s))
    base = moment_fields(K, s, m, x)
    shifted = moment_fields(K, s + shift, m, x + shift)
    assert_fields_close(shifted, base, magnitude(base), rtol=1e-9)


# --- the real coupling series --------------------------------------------------

EPS = np.finfo(float).eps
#: k D in [0, 1], a box diagonal D from 1 nm to 1 m, and distances r in
#: (0, D] down to 2^-20 D.
kds = st.floats(0.0, 1.0)
diagonals = st.floats(-7.0, 2.0).map(lambda e: 10.0**e)
fractions = arrays(float, st.integers(1, 8), elements=st.floats(2.0**-20, 1.0))


def _pair_at(diagonal):
    """Two points whose bounding box has the diagonal `diagonal` exactly."""
    return np.array([[0.0, 0.0, 0.0], [diagonal, 0.0, 0.0]])


def _exact_parts(mpmath, k, r):
    """Re c_iso and Re c_dir at one distance, in mpmath's 40 digits."""
    k, r = mpmath.mpf(k), mpmath.mpf(r)
    x = k * r
    c0 = -1 / (4 * mpmath.pi * r**3)
    f_iso = mpmath.cos(x) + x * mpmath.sin(x)
    f_dir = (3 - x * x) * mpmath.cos(x) + 3 * x * mpmath.sin(x)
    return c0 * f_iso, -c0 * f_dir / r**2


@given(kds, diagonals, fractions)
def test_real_coupling_series_is_within_4_ulps_of_the_exact_parts(kd, diagonal, fractions):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    k = kd / diagonal
    degree = kernels.series_degree(k, _pair_at(diagonal))
    assume(degree is not None)  # k D rounded above 1
    r = fractions * diagonal
    c_iso, c_dir = kernels.real_coupling_series(k, r.copy(), degree, hessian=True)
    assert np.array_equal(kernels.real_coupling_series(k, r.copy(), degree), c_iso)
    for distance, got in zip(r, zip(c_iso, c_dir)):
        for value, exact in zip(got, _exact_parts(mpmath, k, distance)):
            # an ulp here is eps |exact|, the spacing of doubles at 1.0 scaled
            assert abs(mpmath.mpf(value) - exact) <= 4 * EPS * abs(exact)


@given(kds)
def test_series_degree_is_the_least_that_drops_only_rounding(kd):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    degree = kernels.series_degree(kd, _pair_at(1.0))
    assume(degree is not None)
    y = mpmath.mpf(kd) ** 2
    # the coefficients in exact rationals, 40 terms past the degree
    n = range(degree + 42)
    f_iso = [(-1) ** i * (1 - 2 * i) / mpmath.factorial(2 * i) for i in n]
    f_dir = [(-1) ** i * (2 * i - 1) * (2 * i - 3) / mpmath.factorial(2 * i) for i in n]

    def bound(i):
        """Term i of either series at y, relative to the series' least value (1 and 3)."""
        return max(abs(f_iso[i]), abs(f_dir[i]) / 3) * y**i

    tol = kernels.PLANE_WAVE_TOL
    slack = 1e-12  # the rule's own rounding of y^n and of the coefficients
    assert bound(degree + 1) < tol * (1 + slack)
    if degree > 0:
        assert bound(degree) >= tol * (1 - slack)
    # and each dropped tail is at most its first term
    tails = [abs(sum(c[i] * y**i for i in n[degree + 1:])) for c in (f_iso, f_dir)]
    assert max(tails[0], tails[1] / 3) <= bound(degree + 1) * (1 + slack)


@settings(max_examples=10)
@given(st.floats(1.0, 1.5, exclude_min=True))
def test_real_blocks_past_kd_1_are_the_complex_kernels_real_part(kd):
    # 766 points with no mirror keep real blocks up to k D = 1.5 (Q <= 200)
    mesh = mesh_sphere(1e-9, 12)
    points = mesh.points.copy()
    points[5, 1] += 1e-15
    mesh = CollocationMesh(points=points, normals=mesh.normals, weights=mesh.weights,
                           volume=mesh.volume, center=mesh.center)
    diagonal = float(np.linalg.norm(np.ptp(points - mesh.center, axis=0)))
    k = kd / diagonal
    while k * diagonal <= 1.0:
        k = np.nextafter(k, np.inf)
    op = OneBodyOperator(mesh, k)
    assert op.mirrors == () and op.directions is not None and op.series is None
    expected, _ = one_shot_packed_pairs(mesh.points, mesh.center,
                                        lambda r: kernel_gradient_parts(k, r)[1], float)
    assert np.array_equal(op._packed, expected)
