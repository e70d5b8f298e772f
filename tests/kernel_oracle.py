"""Per-pair Helmholtz kernel oracle for the tests.

green evaluates g(x, t) = exp(ik|x - t|) / (4 pi |x - t|), its gradient and
its Hessian in x at one point pair, straight from the closed forms in the
emscat.kernels docstring.  The package's vectorized kernels and every
operator built from them are checked against it pair by pair.
pair_distances is the one-shot (P, P) distance matrix that the row-blocked
pair pass of emscat.kernels is checked against.
"""

from dataclasses import dataclass

import numpy as np

from emscat.kernels import (FOUR_PI, R_MIN_SCALE, CoincidentPointsError, _check_coincident,
                            _distances)


@dataclass(frozen=True)
class KernelEval:
    """Kernel value with first and second x-derivatives at one point pair.

    value is in 1/cm, gradient (shape (3,)) in 1/cm^2 and hessian
    (shape (3, 3), symmetric) in 1/cm^3.
    """

    value: complex
    gradient: np.ndarray
    hessian: np.ndarray


def green(k: float, x, t) -> KernelEval:
    """Evaluate g(x, t) together with its gradient and Hessian in x.

    k is the wavenumber in 1/cm (k = 0 gives the static kernel); x and t
    are length-3 real sequences (cm).  Raises CoincidentPointsError if
    |x - t| is below R_MIN_SCALE * max(1, |x|, |t|).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    diff = x - t
    r = float(np.linalg.norm(diff))
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(t))))
    if r < R_MIN_SCALE * scale:
        raise CoincidentPointsError(
            f"source and evaluation point coincide: |x-t|={r:.3e}, scale={scale:.3e}"
        )

    u = diff / r
    value = np.exp(1j * k * r) / (FOUR_PI * r)
    radial = 1j * k - 1.0 / r
    gradient = value * radial * u
    hessian = value * (
        (radial / r) * np.eye(3)
        + (-k * k - 3j * k / r + 3.0 / (r * r)) * np.outer(u, u)
    )
    return KernelEval(value=complex(value), gradient=gradient, hessian=hessian)


def pair_distances(points: np.ndarray, center) -> np.ndarray:
    """(P, P) distances |x_i - x_j| with 1.0 on the diagonal as a placeholder.

    The distances are taken between points - center, so they keep full
    precision for a small cluster far from the origin; the squares are
    summed one component at a time, so no (P, P, 3) temporary is built.
    Raises CoincidentPointsError when two points lie closer than
    R_MIN_SCALE * max(1, max |points|).
    """
    x = points - center
    r = _distances(x, x)
    ids = np.arange(len(x))
    _check_coincident(r, ids, ids, R_MIN_SCALE * max(1.0, float(np.abs(points).max())))
    return r
