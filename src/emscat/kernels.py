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


def green(k: float, x, t) -> KernelEval:
    """Evaluate g(x, t) together with its gradient and Hessian in x.

    Parameters
    ----------
    k : wavenumber in 1/cm (k = 0 gives the static kernel).
    x, t : evaluation and source points, length-3 real sequences (cm).

    Raises
    ------
    CoincidentPointsError
        If |x - t| is below R_MIN_SCALE * max(1, |x|, |t|).
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
    r = np.subtract.outer(x[:, 0], x[:, 0])
    r *= r
    for comp in (1, 2):
        d = np.subtract.outer(x[:, comp], x[:, comp])
        d *= d
        r += d
    np.sqrt(r, out=r)
    np.fill_diagonal(r, np.inf)
    r_min = float(r.min())
    guard = R_MIN_SCALE * max(1.0, float(np.abs(points).max()))
    if r_min < guard:
        i, j = np.unravel_index(np.argmin(r), r.shape)
        raise CoincidentPointsError(
            f"points {i} and {j} are coincident: |x_i - x_j| = {r_min:.3e}"
        )
    np.fill_diagonal(r, 1.0)
    return r


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


def kernel_hessian_parts(
    k: float, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized value and Hessian of g, the latter in split form.

    Returns (g, c_iso, c_dir) with hess_pq = c_iso delta_pq + c_dir diff_p diff_q
    and grad g = c_iso diff, so large batches never materialize (..., 3, 3)
    arrays.  c_iso is formed from g, not with gradient_coefficient: that
    would cost a second complex exp per pair.
    """
    g = np.exp(1j * k * r) / (FOUR_PI * r)
    c_iso = g * (1j * k - 1.0 / r) / r
    c_dir = g * (-k * k - 3j * k / r + 3.0 / (r * r)) / (r * r)
    return g, c_iso, c_dir


def moment_fields(k: float, sources, moments, x) -> tuple[np.ndarray, np.ndarray]:
    """Scattered E and curl E of point moments m_j at sources s_j.

    E(x) = sum_j grad g(x, s_j) x m_j and its curl sum_j (k^2 g + H) m_j,
    with H the kernel Hessian.  sources is real (m, 3), moments complex
    (m, 3); x is (3,) or (n, 3), n = 0 included, and both results have the
    leading shape of x.  Raises CoincidentPointsError when x lies on a
    source (closer than R_MIN_SCALE * max(1, max |x|)).
    """
    x = np.asarray(x, dtype=float)
    moments = np.asarray(moments, dtype=complex)
    diff = x[..., None, :] - sources
    r = np.linalg.norm(diff, axis=-1)
    if r.size and float(r.min()) < R_MIN_SCALE * max(1.0, float(np.abs(x).max())):
        index = np.unravel_index(np.argmin(r), r.shape)[-1]
        raise CoincidentPointsError(f"field evaluation point lies on source {index}")
    g, c_iso, c_dir = kernel_hessian_parts(k, r)
    # Sums over the sources as matrix products: a[..., p, q] =
    # sum_j grad_p g(x, s_j) m_jq, whose antisymmetric part is E.
    a = np.swapaxes(c_iso[..., None] * diff, -1, -2) @ moments
    e = np.stack([a[..., 1, 2] - a[..., 2, 1], a[..., 2, 0] - a[..., 0, 2],
                  a[..., 0, 1] - a[..., 1, 0]], axis=-1)
    d_dot_m = np.einsum("...mp,mp->...m", diff, moments)
    curl = (k * k * g + c_iso) @ moments + ((c_dir * d_dot_m)[..., None, :] @ diff)[..., 0, :]
    return e, curl
