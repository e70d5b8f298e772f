"""Property tests of the point-moment field sum: linearity, additivity over
sources and translation invariance, on generated sources, moments and points."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from emscat.kernels import moment_fields  # noqa: E402

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
