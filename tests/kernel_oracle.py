"""Per-pair Helmholtz kernel oracle for the tests.

green evaluates g(x, t) = exp(ik|x - t|) / (4 pi |x - t|), its gradient and
its Hessian in x at one point pair, straight from the closed forms in the
emscat.kernels docstring.  The package's vectorized kernels and every
operator built from them are checked against it pair by pair.
pair_distances is the one-shot (P, P) distance matrix that the row-blocked
pair pass of emscat.kernels is checked against; full_pair_matrix and
one_shot_packed_pairs build on it the one-shot matrices and packed blocks
that the row-blocked builders must equal bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from emscat.kernels import (FOUR_PI, R_MIN_SCALE, CoincidentPointsError, _block_rows,
                            _check_coincident, _distances)


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


def full_pair_matrix(points, center, kernel, weights, signs=None, ids=None):
    """The one-shot construction: pair_distances, kernel, times w_j, zero diagonal.

    A kernel returning a tuple gives the stack of its matrices.  With signs,
    the distances are taken to the mirror images signs * (x_j - center) and
    only the self pairs that ids = (rows, images) name are zeroed.
    """
    if signs is None:
        r = pair_distances(points, center)
        self_pairs = np.arange(len(points))
    else:
        x = points - center
        r = _distances(x, x * signs)
        self_pairs = np.flatnonzero(ids[0] == ids[1])
        r[self_pairs, self_pairs] = 1.0
    c = kernel(r)
    if isinstance(c, tuple):
        c = np.stack(c)
    if weights is not None:
        c *= weights
    c[..., self_pairs, self_pairs] = 0.0
    return c


def packed(s):
    """A symmetric (n, P, P) stack s laid out as packed_pairs' upper block rows."""
    p = s.shape[-1]
    step = _block_rows(p)
    return [(a, min(p, a + step), np.ascontiguousarray(s[:, a:a + step, a:]))
            for a in range(0, p, step)]


def one_shot_packed_pairs(points, center, kernel, dtype=complex, mirrors=None, visit=None):
    """Stand-in for packed_pairs that packs the full construction's matrices.

    With mirrors, the full matrices of each pass are summed through the
    character table in the order packed_pairs sums its block rows.  visit
    sees each pass's full matrices as one block row, and returns the ones
    packed.
    """
    signs, ids, characters = mirrors or ((None,), (None,), np.ones((1, 1)))
    terms = []
    for g, (sign, pair_ids) in enumerate(zip(signs, ids)):
        s = full_pair_matrix(points, center, kernel, None, sign, pair_ids)
        if visit is not None:
            s = visit(g, 0, len(points), tuple(s) if s.ndim == 3 else s)
            s = np.stack(s) if isinstance(s, tuple) else s
        s = (s.real if dtype is float else s).reshape(-1, *s.shape[-2:])
        terms.append(characters[:, g, None, None, None] * s)  # (m, n, P, P), exact
    sums = functools.reduce(np.add, terms)
    rows = packed(sums.reshape(-1, *sums.shape[-2:]))
    buffer = np.concatenate([view.ravel() for _, _, view in rows])
    assert buffer.dtype == dtype
    blocks, offset = [], 0
    for a, b, view in rows:
        blocks.append((a, b, buffer[offset:offset + view.size].reshape(view.shape)))
        offset += view.size
    return buffer, blocks
