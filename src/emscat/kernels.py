"""Outgoing Helmholtz point-source kernel and its spatial derivatives.

The scalar kernel

    g(x, t) = exp(ik|x - t|) / (4 pi |x - t|)

is the radiating free-space solution of (Laplacian + k^2) g = -delta.
Everything downstream (boundary operator assembly, moment coupling, field
evaluation) needs g, its gradient with respect to x, and its Hessian.
Closed forms are used throughout; with r = |x - t| and u = (x - t)/r,

    grad_p g  = g (ik - 1/r) u_p
    hess_pq g = g [ (ik - 1/r)/r delta_pq + (-k^2 - 3ik/r + 3/r^2) u_p u_q ]

Away from r = 0 the Hessian trace equals -k^2 g.  All lengths are in cm,
k in 1/cm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi

# Pairs closer than this (relative to the point magnitudes) are treated as
# coincident: the kernel is singular and the caller almost certainly fed a
# self-interaction by accident.
R_MIN_SCALE = 1e-15


class CoincidentPointsError(ValueError):
    """Kernel evaluation requested at (numerically) coincident points."""


@dataclass(frozen=True)
class KernelEval:
    """Kernel value with first and second x-derivatives at one point pair.

    value is in 1/cm, gradient (shape (3,)) in 1/cm^2 and hessian
    (shape (3, 3), symmetric) in 1/cm^3.
    """

    value: complex
    gradient: np.ndarray
    hessian: np.ndarray


def _check_separation(x: np.ndarray, t: np.ndarray, r: float, r_min_scale: float) -> None:
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(t))))
    if r < r_min_scale * scale:
        raise CoincidentPointsError(
            f"source and evaluation point coincide: |x-t|={r:.3e}, scale={scale:.3e}"
        )


def green(k: float, x, t, r_min_scale: float = R_MIN_SCALE) -> KernelEval:
    """Evaluate g(x, t) together with its gradient and Hessian in x.

    Parameters
    ----------
    k : wavenumber in 1/cm (k = 0 gives the static kernel).
    x, t : evaluation and source points, length-3 real sequences (cm).
    r_min_scale : separation guard relative to max(1, |x|, |t|).

    Raises
    ------
    CoincidentPointsError
        If |x - t| underflows the separation guard.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    diff = x - t
    r = float(np.linalg.norm(diff))
    _check_separation(x, t, r, r_min_scale)

    u = diff / r
    value = np.exp(1j * k * r) / (FOUR_PI * r)
    radial = 1j * k - 1.0 / r
    gradient = value * radial * u
    hessian = value * (
        (radial / r) * np.eye(3)
        + (-k * k - 3j * k / r + 3.0 / (r * r)) * np.outer(u, u)
    )
    return KernelEval(value=complex(value), gradient=gradient, hessian=hessian)


def green_static(x, t, r_min_scale: float = R_MIN_SCALE) -> complex:
    """Static kernel 1 / (4 pi |x - t|); identical to green(0, x, t).value."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    r = float(np.linalg.norm(x - t))
    _check_separation(x, t, r, r_min_scale)
    return complex(1.0 / (FOUR_PI * r))


def kernel_values(k: float, diff: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized g over precomputed separations r = |diff| (no guard)."""
    return np.exp(1j * k * r) / (FOUR_PI * r)


def gradient_coefficient(k: float, r: np.ndarray) -> np.ndarray:
    """Vectorized scalar c = g (ik - 1/r) / r, so that grad g = c (x - t).

    Evaluated in place as exp(ikr) (ikr - 1) / (4 pi r^3), with at most two
    complex arrays of the shape of r alive at once: the one-body operator
    calls it on all P^2 point pairs.  No coincidence guard.
    """
    c = np.multiply(r, 1j * k)
    phase = np.exp(c)
    c -= 1.0
    c *= phase
    del phase
    factor = r**3
    factor *= FOUR_PI
    np.reciprocal(factor, out=factor)
    c *= factor
    return c


def kernel_gradients(k: float, diff: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized gradient of g with respect to x over diff = x - t.

    diff has shape (..., 3), r shape (...); returns complex (..., 3).
    Callers are responsible for excluding coincident pairs.
    """
    return gradient_coefficient(k, r)[..., None] * diff


def kernel_hessian_parts(
    k: float, diff: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized value and Hessian of g, the latter in split form.

    Returns (g, c_iso, c_dir) with hess_pq = c_iso delta_pq + c_dir diff_p diff_q,
    so large batches never materialize (..., 3, 3) arrays.
    """
    g = kernel_values(k, diff, r)
    c_iso = g * (1j * k - 1.0 / r) / r
    c_dir = g * (-k * k - 3j * k / r + 3.0 / (r * r)) / (r * r)
    return g, c_iso, c_dir


def curl_dipole_term(k: float, x, t, q) -> np.ndarray:
    """Curl of the point-moment field grad g x q, i.e. k^2 g q + (q . grad) grad g.

    Used by the magnetic-field formulas; q is a complex 3-vector.
    """
    ker = green(k, x, t)
    q = np.asarray(q, dtype=complex)
    return k * k * ker.value * q + ker.hessian @ q
