"""Property tests of the dense many-body coupling C, on both of its branches:
reciprocity and the sign of the radiated power, on generated vectors."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from emscat.many_body import ManyBodyOperator, layout_from_centers  # noqa: E402
from emscat.one_body import GammaMatrix  # noqa: E402
from emscat.waves import default_wave  # noqa: E402

SPACING = 1e-7
#: gamma = 0, so tau = I and the operator is I + C.
NO_SHIFT = GammaMatrix.from_gamma(np.zeros((3, 3)))


@functools.cache
def coupling(n: int, kl: float) -> ManyBodyOperator:
    """Dense operator on n^3 jittered bodies of equal volume at k L = kl.

    L is the largest side of the layout's box; kl = 0 takes the default wave.
    """
    rng = np.random.default_rng(n)
    grid = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = (grid * 1.5 + 1.0 + rng.uniform(-0.2, 0.2, size=grid.shape)) * SPACING
    # equal volumes 1e5 radius^3: a coupling of a few percent of the identity
    layout = layout_from_centers(centers, SPACING, 1e-9, volumes=np.full(n**3, 1e-22))
    k = kl / np.ptp(centers, axis=0).max() if kl else default_wave().wavenumber
    return ManyBodyOperator(layout, k, NO_SHIFT)


#: (n, k L): 27 bodies keep complex coefficients, 216 and 512 store real ones
#: and the plane-wave table (512 up to k L = 3).
CASES = [(3, 0.0), (3, 3.0), (6, 0.0), (8, 1.0), (8, 3.0)]
cases = st.sampled_from(CASES)
seeds = st.integers(0, 2**32 - 1)


def random_vector(rng, count):
    return rng.normal(size=3 * count) + 1j * rng.normal(size=3 * count)


def apply_coupling(operator, v):
    return operator.matvec(v) - v


def test_cases_cover_both_branches():
    dtypes = {coupling(*case)._packed.dtype for case in CASES}
    assert dtypes == {np.dtype(complex), np.dtype(float)}


# the first example of each case builds its operator; no deadline, so that
# the build is not taken for an unreliable timing
@settings(deadline=None)
@given(cases, seeds)
def test_coupling_is_reciprocal(case, seed):
    # C_mj = K(x_m - x_j) |D| with K even and symmetric: u.(C v) = v.(C u),
    # unconjugated
    operator = coupling(*case)
    rng = np.random.default_rng(seed)
    u, v = random_vector(rng, operator.count), random_vector(rng, operator.count)
    cu, cv = apply_coupling(operator, u), apply_coupling(operator, v)
    scale = np.linalg.norm(u) * np.linalg.norm(cv) + np.linalg.norm(v) * np.linalg.norm(cu)
    assert abs(u @ cv - v @ cu) <= 1e-13 * scale


@settings(deadline=None)
@given(cases, seeds, st.booleans())
def test_radiated_power_is_not_negative(case, seed, centred):
    # Im (k^2 g I + H) with its r -> 0 limit (k^3 / 6 pi) I put back is
    # (k^3 / 16 pi^2) int (I - s s^T) exp(ik s.(x_m - x_j)) ds, a Gram matrix:
    # A^H Im C A >= 0.  With tau = I and a real vector v the imaginary part
    # of C v is Im C v, and A^H Im C A sums the real and imaginary parts of A.
    # centred takes out the mean of A, whose power is then of order (k L)^2
    # smaller: the case where rounding would show.
    operator = coupling(*case)
    k, volume = operator._wavenumber, operator._layout.volumes[0]
    rng = np.random.default_rng(seed)
    a = random_vector(rng, operator.count).reshape(-1, 3)
    if centred:
        a -= a.mean(axis=0)
    a = a.reshape(-1)
    self_term = k**3 / (6.0 * np.pi) * volume
    power = sum(v @ apply_coupling(operator, v).imag + self_term * (v @ v)
                for v in (a.real, a.imag))
    assert power >= -1e-12 * self_term * np.vdot(a, a).real
