"""Outgoing Helmholtz point-source kernel and its spatial derivatives.

The scalar kernel

    g(x, t) = exp(ik|x - t|) / (4 pi |x - t|)

is the radiating free-space solution of (Laplacian + k^2) g = -delta.
Everything downstream (boundary operator assembly, moment coupling, field
evaluation) needs g, its gradient with respect to x, and its Hessian.
Closed forms are used throughout; with r = |x - t| and u = (x - t)/r,

    grad_p g  = g (ik - 1/r) u_p
    hess_pq g = g [ (ik - 1/r)/r delta_pq + (-k^2 - 3ik/r + 3/r^2) u_p u_q ]

Away from r = 0 the Hessian trace equals -k^2 g.  The imaginary parts of
g and of the scalar coefficients of its derivatives are entire in r^2, and
plane_wave_rule separates them.  This module owns the format of the dense
operators built on it: pair_blocks is the one pass over the pairs of
points, in upper block rows; pair_matrix writes it out as full matrices
(the oracles') and packed_pairs stores the symmetric ones once, as packed
upper block rows, for both dense operators: the many-body coupling's two
matrices from one pass, and the one-body operator's character blocks
summed from one mirrored pass per group element.  packed_product applies
them.  PackedCoupling, the base of both operators, stores them real or
complex by one rule: radiative_field and radiative_curl add the imaginary
parts back through the plane-wave table.  The real parts are the static
kernel c0 = -1 / (4 pi r^3) times an entire function of y = (kr)^2,

    Re c_iso = c0 (cos kr + kr sin kr),
    Re c_dir = -c0 ((3 - y) cos kr + 3 kr sin kr) / r^2,

so while k D <= 1, D the extent of the points, real_coupling_series sums
them as short series in y, with no transcendental call; past that the
real blocks keep the real part of the complex kernel.  All lengths are in
cm, k in 1/cm.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_dense_bytes

FOUR_PI = 4.0 * np.pi

# Pairs closer than this (relative to the point magnitudes) are treated as
# coincident: the kernel is singular and the caller almost certainly fed a
# self-interaction by accident.
R_MIN_SCALE = 1e-15


class CoincidentPointsError(ValueError):
    """Kernel evaluation requested at (numerically) coincident points."""


def _distances(x_rows: np.ndarray, x_cols: np.ndarray) -> np.ndarray:
    """(n, m) distances |x_i - x_j|, the squares summed one component at a time."""
    r = np.subtract.outer(x_rows[:, 0], x_cols[:, 0])
    r *= r
    for comp in (1, 2):
        d = np.subtract.outer(x_rows[:, comp], x_cols[:, comp])
        d *= d
        r += d
    np.sqrt(r, out=r)
    return r


def _check_coincident(r: np.ndarray, rows: np.ndarray, cols: np.ndarray, guard: float) -> None:
    """Guard a block of distances and put 1.0 on its self pairs.

    rows and cols name the points of the block's rows and columns, so that
    entry (i, i) is a self pair where rows[i] == cols[i]; every other entry
    is guarded.  Raises CoincidentPointsError naming the closest pair when
    it lies below guard.  Returns the indices i of the self pairs.
    """
    diag = np.flatnonzero(rows == cols[:len(rows)])
    r[diag, diag] = np.inf
    r_min = float(r.min())
    if r_min < guard:
        i, j = np.unravel_index(np.argmin(r), r.shape)
        raise CoincidentPointsError(
            f"points {rows[i]} and {cols[j]} are coincident: "
            f"|x_i - x_j| = {r_min:.3e}"
        )
    r[diag, diag] = 1.0
    return diag


#: Distances evaluated per row block of pair_blocks: 512 KiB of r, so the
#: kernel's temporaries stay a few MiB whatever the point count.  Smaller
#: blocks also evaluate fewer pairs twice and stay in cache; assembly was
#: fastest near this size from P = 729 to 3174 (one BLAS thread).
PAIR_BLOCK_BYTES = 2**19


def _block_rows(p: int) -> int:
    """Rows per block of PAIR_BLOCK_BYTES of distances against p columns."""
    return max(1, PAIR_BLOCK_BYTES // (8 * max(1, p)))


def pair_blocks(points: np.ndarray, center, kernel, signs=None, ids=None):
    """Yield (a, b, blocks): kernel on rows [a, b) against columns [a, P) of r_ij.

    r_ij = |x_i - x_j| with x = points - center, so the distances keep full
    precision for a small cluster far from the origin.  Since r is
    symmetric, the blocks cover its upper triangle: row blocks of at most
    PAIR_BLOCK_BYTES of distances, each (b - a, P - a), so a caller holds
    one block of kernel temporaries whatever P.  kernel maps an array of
    distances to an array of its shape (it may overwrite its argument), or
    to a tuple of such arrays; blocks is its output, unweighted, with the
    self pairs set to zero.  The generator keeps no block between steps.
    Raises CoincidentPointsError when two points lie closer than
    R_MIN_SCALE * max(1, max |points|).

    signs, (3,) of +-1, pairs each point with the mirror images of the
    points instead: r_ij = |x_i - signs * x_j|, still symmetric in (i, j).
    ids = (rows, images) then names point i and the image of point j in the
    mesh they come from: entry (i, i) is a self pair, zero and unguarded,
    only where rows[i] == images[i] (the mirror fixes the point), and the
    guard names points by these ids.  Both default to the points themselves.
    """
    x = points - center
    p = x.shape[0]
    images = x if signs is None else x * signs
    rows, cols = (np.arange(p),) * 2 if ids is None else ids
    guard = R_MIN_SCALE * max(1.0, float(np.abs(points).max()))
    step = _block_rows(p)
    for a in range(0, p, step):
        b = min(p, a + step)
        yield a, b, _pair_block(kernel, x[a:b], images[a:], rows[a:b], cols[a:], guard)


def _pair_block(kernel, x, images, rows, cols, guard):
    """One block of pair_blocks: kernel on |x_i - images_j|, self pairs zero."""
    r = _distances(x, images)
    diag = _check_coincident(r, rows, cols, guard)
    blocks = kernel(r)
    for block in _parts(blocks):
        block[diag, diag] = 0.0
    return blocks


def _parts(blocks) -> tuple:
    """A kernel's output as a tuple of arrays."""
    return blocks if isinstance(blocks, tuple) else (blocks,)


def pair_matrix(points: np.ndarray, center, kernel, weights=None, dtype=complex) -> np.ndarray:
    """(P, P) matrix kernel(r_ij) w_j with a zero diagonal, r_ij = |x_i - x_j|.

    One pass of pair_blocks(points, center, kernel), whose arguments and
    guard it shares; for a kernel returning a tuple of n arrays the result
    is the (n, P, P) stack of their matrices.  w_j = 1 when weights is
    None.  Each block and its weighted transpose are written straight into
    the output, so assembly holds the output plus one block.  For a kernel
    whose bits do not depend on the size of its argument, as for every
    kernel in this module, the entries equal those of the kernel on the
    whole (P, P) distance matrix, times w_j, bit for bit; a float dtype
    keeps the real part of a complex kernel.
    """
    p = len(points)
    w = np.ones(p) if weights is None else np.asarray(weights, dtype=float)
    out = None
    for a, b, blocks in pair_blocks(points, center, kernel):
        stacked = isinstance(blocks, tuple)
        if out is None:
            out = np.empty((len(_parts(blocks)), p, p), dtype=dtype)
        for block, part in zip(_parts(blocks), out):
            if not np.iscomplexobj(part):
                block = block.real
            np.multiply(block, w[a:], out=part[a:b, a:])
            np.multiply(block[:, b - a:].T, w[a:b], out=part[b:, a:b])
    return out if stacked else out[0]


def packed_entries(p: int) -> int:
    """Entries of one symmetric (p, p) matrix in packed_pairs' upper block rows."""
    step = _block_rows(p)
    a = np.arange(0, p, step)
    return int(np.sum(np.minimum(step, p - a) * (p - a)))


def block_row_entries(p: int) -> int:
    """Entries of the largest block row of pair_blocks on p points: its first."""
    return min(p, _block_rows(p)) * p


def packed_pairs(points: np.ndarray, center, kernel, dtype=complex,
                 mirrors=None) -> tuple[np.ndarray, list]:
    """The symmetric matrices S = kernel(r_ij), stored once: packed upper block rows.

    kernel returns an array or a tuple of n arrays, as for pair_matrix; the
    n matrices are unweighted, so each is symmetric, and their self pairs
    are zero.  One pair_blocks pass writes each block as it comes into one
    flat buffer of n packed_entries(P) entries (a float dtype keeps the
    real part), a cousin of LAPACK's packed symmetric storage that keeps
    whole row blocks for level-3 BLAS (Gustavson, Wasniewski, Dongarra and
    Langou, ACM TOMS 37(2), 2010).  Block row [a, b) is an (n, b - a, P - a)
    C-contiguous view of the buffer holding rows [a, b) against columns
    [a, P), the full diagonal block included.  Returns (buffer, blocks),
    blocks the list of (a, b, view) that packed_product reads; an owner
    keeps both, so that PackedCoupling.nbytes counts the buffer once.  Each
    matrix takes at most P (P + b) / 2 entries for b rows per block, about
    half of a full one.

    mirrors = (signs, ids, characters) makes one pair_blocks pass per
    element g of a mirror group, with signs[g] and ids[g], and stores the
    m n matrices sum_g characters[psi, g] K_g, K_g the kernel's matrices of
    pass g and characters an (m, |G|) table whose column 0 is the identity's,
    as matrix psi n + t for part t of the kernel.  |x_i - R_g x_j| =
    |x_j - R_g x_i|, so each sum is symmetric too.  The passes step through
    the block rows together: block row [a, b) of every pass is added in
    while the sums' rows are in cache, and a pass's block is released
    before the next pass's is made, so one is held within a block row.
    The last pass's block of a row is released as the next row's first
    block is made: releasing it before raised the peak RSS of a dense
    many-body solve (one pass) by about 1.2 MiB at M = 2197, as glibc
    reused the freed blocks less well.
    """
    p = len(points)
    signs, ids, characters = mirrors or ((None,), (None,), np.ones((1, 1)))
    passes = [pair_blocks(points, center, kernel, s, i) for s, i in zip(signs, ids)]
    buffer, blocks, offset = None, [], 0
    step = _block_rows(p)
    for a in range(0, p, step):
        b = min(p, a + step)
        for g, rows in enumerate(passes):
            if g:
                del parts  # the previous pass's block, before this pass's is made
            parts = _parts(next(rows)[2])
            n = len(characters) * len(parts)
            if buffer is None:
                buffer = np.empty(n * packed_entries(p), dtype=dtype)
            if g == 0:
                view = buffer[offset:offset + n * (b - a) * (p - a)].reshape(n, b - a, p - a)
            _sum_pass(view, parts, characters[:, g], g)
        blocks.append((a, b, view))
        offset += view.size
    return buffer, blocks


def _sum_pass(sums: np.ndarray, parts: tuple, signs: np.ndarray, g: int) -> None:
    """sums[psi n + t] += signs[psi] * parts[t] for the n parts of pass g; pass 0 writes."""
    for t, part in enumerate(parts):
        if not np.iscomplexobj(sums):
            part = part.real
        for stored, sign in zip(sums[t::len(parts)], signs):
            if g == 0:
                stored[...] = part
            elif sign > 0:
                stored += part
            else:
                stored -= part


def packed_product(blocks: list, part, z: np.ndarray) -> np.ndarray:
    """S @ z for matrix `part` of packed_pairs' blocks and a complex (P, c) block z.

    part may also be a slice that picks n matrices, z then an (n, P, c)
    stack, one product per matrix.  By symmetry, two GEMMs per block row:
    out[a:b] += S[a:b, a:] @ z[a:] and out[b:] += S[a:b, b:]^T @ z[a:b].
    The first block row holds every column, so it writes out, with no zero
    fill; a block row that covers every row is one GEMM.  Real blocks
    multiply z viewed as a float64 (..., P, 2c) block: real GEMMs, with no
    copy of a C-contiguous complex z.
    """
    real = not np.iscomplexobj(blocks[0][2])
    w = np.ascontiguousarray(z, dtype=complex)
    if real:
        w = w.view(float)
    out = np.empty(w.shape, dtype=w.dtype)
    for a, b, block in blocks:
        s = block[part]
        if a == 0:
            np.matmul(s, w, out=out[..., :b, :])
            if b < w.shape[-2]:
                np.matmul(np.swapaxes(s[..., b:], -1, -2), w[..., :b, :], out=out[..., b:, :])
        else:
            out[..., a:b, :] += s @ w[..., a:, :]
            out[..., b:, :] += np.swapaxes(s[..., b - a:], -1, -2) @ w[..., a:b, :]
    return out.view(complex) if real else out


def _moment_columns(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (P, 12) block [v, x (x) v]: column 3 + 3p + q holds x_p v_q.

    A pair sum sum_j c_ij (x_i - x_j)_p v_jq is then x_ip (c @ v)_iq minus
    column 3 + 3p + q of c @ [v, x (x) v]: one GEMM for all nine (p, q).
    """
    return np.concatenate([v, (x[:, :, None] * v[:, None, :]).reshape(-1, 9)], axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcast as np.cross does.

    The same products and differences in the same order as np.cross, so
    the same bits, without its axis moves and casts: about two thirds of
    its time on the (4, 197, 3) blocks of the one-body matvec.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _cross_columns(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (..., P, 6) block [v, x x v], one per leading index of v."""
    return np.concatenate([v, _cross(x, v)], axis=-1)


def _cross_sum(x: np.ndarray, product: np.ndarray) -> np.ndarray:
    """sum_j c_ij (x_i - x_j) x v_j = x_i x (c v)_i - (c (x x v))_i, given c @ [v, x x v]."""
    return _cross(x, product[..., :3]) - product[..., 3:]


def _scale(z: np.ndarray, s: np.ndarray) -> None:
    """z *= s in place for complex z and real s, one real part at a time.

    With s = 1 / d it gives the bits of numpy's z / d, whose complex division
    multiplies by the reciprocal, without casting d to complex.
    """
    np.multiply(z.real, s, out=z.real)
    np.multiply(z.imag, s, out=z.imag)


def kernel_gradient_parts(k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized value of g and the scalar c_iso with grad g = c_iso diff.

    Evaluated in explicit steps as

        g     = exp(ikr) / (4 pi r)
        c_iso = g (ik - 1/r) / r

    with exp(ikr) formed once as cos kr + i sin kr, the complex product
    written to a fresh array with g as its first operand (written over its
    bracket, it changed the bits at one element), and no ufunc that casts a
    real array to complex.  Every element therefore has the same bits
    whatever the size of r (see kernel_hessian_parts).  No coincidence
    guard.
    """
    r = np.asarray(r, dtype=float)
    g = np.empty(r.shape, dtype=complex)
    work = np.multiply(k, r)
    np.cos(work, out=g.real)
    np.sin(work, out=g.imag)
    np.multiply(FOUR_PI, r, out=work)
    np.reciprocal(work, out=work)
    _scale(g, work)
    inv_r = np.reciprocal(r, out=work)
    bracket = np.empty(r.shape, dtype=complex)
    np.negative(inv_r, out=bracket.real)
    bracket.imag = k
    c_iso = np.multiply(g, bracket)
    _scale(c_iso, inv_r)
    return g, c_iso


def kernel_hessian_parts(
    k: float, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized value and Hessian of g, the latter in split form.

    Returns (g, c_iso, c_dir) with hess_pq = c_iso delta_pq + c_dir diff_p diff_q
    and grad g = c_iso diff, so large batches never materialize (..., 3, 3)
    arrays.  g and c_iso are those of kernel_gradient_parts; then

        c_dir = g (-k^2 - 3ik/r + 3/r^2) / r^2

    in the same explicit steps: its bracket in a fresh array, the product
    with g as its first operand into another.  Every element therefore has
    the same bits whatever the size of r; numpy's in-place reuse of large
    temporaries swaps the operands of a fused complex multiply, so the
    one-expression form changed the last bits from 16384 elements up.  The
    bits are those of that form on arrays of 1 to 16383 elements.
    """
    r = np.asarray(r, dtype=float)
    g, c_iso = kernel_gradient_parts(k, r)
    work = np.multiply(r, r)
    bracket = np.empty(r.shape, dtype=complex)
    np.divide(3.0, work, out=bracket.real)
    np.add(bracket.real, -k * k, out=bracket.real)
    np.reciprocal(r, out=bracket.imag)
    np.multiply(3.0 * k, bracket.imag, out=bracket.imag)
    np.negative(bracket.imag, out=bracket.imag)
    c_dir = np.multiply(g, bracket)
    del bracket
    np.reciprocal(work, out=work)
    _scale(c_dir, work)
    return g, c_iso, c_dir


#: Truncation target of plane_wave_rule and real_coupling_series: half a
#: unit in the last place.
PLANE_WAVE_TOL = np.finfo(float).eps / 2

#: Coefficients of y^n, n = 0 .. 11, in f_iso(y) = cos x + x sin x (row 0)
#: and f_dir(y) = (3 - y) cos x + 3 x sin x = 3 f_iso - y cos x (row 1),
#: y = x^2: (-1)^n (1 - 2n) / (2n)! and (-1)^n (2n - 1)(2n - 3) / (2n)!.
#: k D = 1 takes them up to n = 9.
_SERIES = np.array([[(-1) ** n * (1 - 2 * n) / math.factorial(2 * n) for n in range(12)],
                    [(-1) ** n * (2 * n - 1) * (2 * n - 3) / math.factorial(2 * n)
                     for n in range(12)]])

#: Largest k D at which the real blocks are summed by real_coupling_series.
#: Up to it f_iso >= 1 and f_dir >= 3 (both grow with x while x <= pi / 2),
#: so the series neither vanish nor cancel.
SERIES_KD_MAX = 1.0


def series_degree(k: float, x) -> int | None:
    """Degree of real_coupling_series for wavenumber k on the points x (n, 3).

    With D the diagonal of the points' bounding box, as in
    _plane_wave_orders, no pair is farther apart than D, so y <= (k D)^2.
    From n = 2 on, the terms of both series alternate in sign and fall in
    size while y <= 1, so the dropped tail is below its first term; the
    degree is the smallest N whose term N + 1, relative to the least value
    of its series (1 and 3), is below PLANE_WAVE_TOL at y = (k D)^2.  None
    past k D = SERIES_KD_MAX: the complex kernel's real part is kept there.
    """
    kd = k * float(np.linalg.norm(np.ptp(np.asarray(x, dtype=float), axis=0)))
    if not kd <= SERIES_KD_MAX:
        return None
    y = kd * kd
    degree = 0
    while max(abs(_SERIES[0, degree + 1]), abs(_SERIES[1, degree + 1]) / 3.0) * y ** (
            degree + 1) >= PLANE_WAVE_TOL:
        degree += 1
    return degree


def _horner(coefficients: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_n coefficients[n] y^n, by Horner's rule; out must not be y."""
    if len(coefficients) == 1:
        out.fill(coefficients[0])
        return out
    np.multiply(y, coefficients[-1], out=out)
    for c in coefficients[-2:0:-1]:
        out += c
        out *= y
    out += coefficients[0]
    return out


def real_coupling_series(k: float, r: np.ndarray, degree: int, hessian: bool = False):
    """Re c_iso, and (Re c_iso, Re c_dir) when hessian, on the distances r.

    c_iso = c0 (1 - ikr) e^{ikr} and c_dir = -c0 (3 - 3ikr - (kr)^2) e^{ikr} / r^2
    with c0 = -1 / (4 pi r^3) (kernel_hessian_parts), so

        Re c_iso = c0 f_iso(y),   Re c_dir = -c0 f_dir(y) / r^2,   y = (kr)^2,

    each series (_SERIES) summed to `degree` by Horner's rule.  No
    transcendental function is called; every step is one rounded float
    operation per element, so the bits do not depend on the size of r.
    At series_degree's degree, for points at most D apart with k D <= 1,
    both are within 3 eps of the exact values (2.2 and 2.7 eps on 20000
    sampled pairs; the complex kernel's real parts 2.4 and 2.8 eps).  r is
    overwritten.
    """
    r2 = np.multiply(r, r)
    c0 = np.multiply(r2, r, out=r)
    c0 *= -FOUR_PI
    np.reciprocal(c0, out=c0)
    y = np.multiply(r2, k * k)
    iso = _horner(_SERIES[0, :degree + 1], y, np.empty_like(y))
    iso *= c0
    if not hessian:
        return iso
    # -c0 f_dir / r^2 as (c0 / r^2) times the negated series, exactly
    np.divide(c0, r2, out=r2)
    c_dir = _horner(-_SERIES[1, :degree + 1], y, c0)
    c_dir *= r2
    return iso, c_dir


def _plane_wave_orders(k: float, x: np.ndarray) -> tuple[int, int]:
    """(n_theta, n_phi) of plane_wave_rule for wavenumber k and points x (M, 3).

    With D the diagonal of the points' bounding box, no pair is farther
    apart than D, and e^{ik s.d} = sum_l (2l + 1) i^l j_l(k r) P_l(s.d/r)
    with |j_l(x)| <= x^l / (2l + 1)!! and |P_l| <= 1.  Once l >= kD these
    bounds t_l fall by half from one l to the next, so the terms past degree
    L sum to at most 2 t_{L+1}; the rule and the integral each see that
    tail, and L is the smallest degree from floor(kD) up with
    4 t_{L+1} < PLANE_WAVE_TOL.  t_l is formed in logs: (2l + 1)!! overflows
    a float from l = 150, which kD passes for a layout 15 um across at the
    default k.  The rule integrates degree L + 2 exactly, for the factor
    s s^T: Gauss-Legendre with n_theta = floor(L / 2) + 2 nodes in cos theta
    and n_phi = 2 n_theta even, so the rule is antipodal.
    """
    kd = k * float(np.linalg.norm(np.ptp(x, axis=0)))
    degree = 0
    if kd > 0.0:
        log_kd, log_tol = math.log(kd), math.log(PLANE_WAVE_TOL / 4.0)

        def converged(degree):
            l = degree + 1
            log_double_factorial = math.lgamma(2 * l + 2) - l * math.log(2.0) - math.lgamma(l + 1)
            return math.log(2 * l + 1) + l * log_kd - log_double_factorial < log_tol

        # t_l falls from floor(kD) up, so converged is monotone there: double
        # the step from floor(kD) until it holds, then bisect (O(log kD)
        # steps, where a 1 cm body at the default k took 10^5)
        low, step = math.floor(kd) - 1, 1
        while not converged(low + step):
            low, step = low + step, 2 * step
        degree = low + step
        while degree - low > 1:
            mid = (low + degree) // 2
            if converged(mid):
                degree = mid
            else:
                low = mid
    n_theta = degree // 2 + 2
    return n_theta, 2 * n_theta


def plane_wave_rule(k: float, x, at=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plane-wave table of the Funk-Hecke rule on the points x (M, 3).

    sin(k r) / (k r) = (1 / 4 pi) int_{S^2} exp(ik s.(x_m - x_j)) ds, r = |x_m - x_j|,
    and its derivatives in x_m follow under the integral, so every entire
    part of the kernel is separable:
    Im g = (k / 16 pi^2) int exp(ik s.d) ds, Im grad g its gradient and
    Im (k^2 g I + H) = (k^3 / 16 pi^2) int (I - s s^T) exp(ik s.d) ds.
    The rule is a Gauss-Legendre in cos theta x uniform phi product whose
    degree _plane_wave_orders sets, so its truncation error for every pair
    of x is below double rounding.  Returns (phases (M, Q) = exp(ik x_m.s_q),
    directions (Q, 3), weights (Q,) summing to 4 pi).  Pass x centred on the
    points, so that the phases keep their precision far from the origin.
    at, (m, 3), takes the phases at those points instead, on the rule of x.

    Each axis mirror maps the rule onto itself (plane_wave_images): the
    theta nodes are symmetric about the equator and n_phi is even.
    """
    x = np.asarray(x, dtype=float)
    n_theta, n_phi = _plane_wave_orders(k, x)
    if at is not None:
        x = np.asarray(at, dtype=float)
    cos_theta, w_theta = np.polynomial.legendre.leggauss(n_theta)
    sin_theta = np.sqrt(1.0 - cos_theta * cos_theta)
    phi = 2.0 * np.pi / n_phi * np.arange(n_phi)
    directions = np.stack([np.outer(sin_theta, np.cos(phi)), np.outer(sin_theta, np.sin(phi)),
                           np.outer(cos_theta, np.ones(n_phi))], axis=-1).reshape(-1, 3)
    weights = np.repeat(w_theta * (2.0 * np.pi / n_phi), n_phi)
    work = x @ directions.T
    work *= k
    phases = np.empty(work.shape, dtype=complex)
    np.cos(work, out=phases.real)
    np.sin(work, out=phases.imag)
    return phases, directions, weights


def plane_wave_images(q: int, signs: np.ndarray) -> np.ndarray:
    """(len(signs), Q) indices: row g takes direction q of plane_wave_rule's Q = q
    directions to its mirror image, s[images[g, q]] = signs[g] * s[q].

    The directions are n_theta nodes in cos theta, symmetric about 0, times
    n_phi = 2 n_theta angles phi_j = 2 pi j / n_phi, row-major: mirroring z
    reverses the nodes, y takes phi_j to -phi_j and x to pi - phi_j.
    """
    n_theta = math.isqrt(q // 2)
    n_phi = 2 * n_theta
    node, angle = np.divmod(np.arange(q), n_phi)
    images = []
    for sx, sy, sz in np.asarray(signs):
        j = angle if sy > 0 else -angle
        if sx < 0:
            j = n_phi // 2 - j
        i = node if sz > 0 else n_theta - 1 - node
        images.append(i * n_phi + j % n_phi)
    return np.array(images, dtype=np.intp).reshape(-1, q)


def _plane_wave_sums(phases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(Q, c) sums over the points, sum_j exp(-ik s_q.x_j) u_j, for plane_wave_rule's phases."""
    return (phases.T @ u.conj()).conj()


def radiative_field(k: float, table, u: np.ndarray, mirrors=None) -> np.ndarray:
    """sum_j i Im grad g(x_m - x_j) x u_j at every point m, u (M, 3) complex.

    table is plane_wave_rule(k, x).  Im grad g(d) = (k / 16 pi^2) int ik s
    exp(ik s.d) ds (Rokhlin, Appl. Comput. Harmon. Anal. 1, 82, 1993), so
    the sum is (-k^2 / 16 pi^2) sum_q w_q exp(ik s_q.x_m) s_q x B_q with
    B_q = sum_j exp(-ik s_q.x_j) u_j, in O(M Q).  The integrand is odd in s,
    so the self pair j = m adds nothing.

    mirrors = (images, signs) sums over every image R_g x_j of the M points
    under a mirror group instead, one term per element g, so u carries
    1 / |Stab j| for a point that some g fixes.  u is then (M, n, 3): n
    fields with u_k(g j) = signs[g, k] * u_k(j), signs (|G|, n, 3) acting
    per component.  R_g s_q is direction images[g, q] (plane_wave_images),
    so field k's B_q is sum_g signs[g, k] * B'_k[images[g, q]], B' the sums
    over the M points alone; the result, (M, n, 3), is each field's sum at
    the M points.
    """
    phases, directions, weights = table
    sums = _plane_wave_sums(phases, u.reshape(len(u), -1)).reshape(-1, *u.shape[1:])
    if mirrors is not None:
        images, signs = mirrors
        sums = (sums[images] * signs[:, None]).sum(axis=0)
        directions = directions[:, None]
    b = _cross(directions, sums)
    b *= ((-k * k / (16.0 * np.pi**2)) * weights).reshape(-1, *[1] * (u.ndim - 1))
    return (phases @ b.reshape(len(b), -1)).reshape(u.shape)


def radiative_curl(k: float, table, u: np.ndarray) -> np.ndarray:
    """sum_j i Im (k^2 g I + H)(x_m - x_j) u_j at every point m, u (M, 3) complex.

    table is plane_wave_rule(k, x), and
    Im (k^2 g I + H) = (k^3 / 16 pi^2) int (I - s s^T) exp(ik s.d) ds sums
    over every j in O(M Q), the self pair j = m included, where it equals
    its r -> 0 limit (k^3 / 6 pi) I.
    """
    phases, s, weights = table
    b = _plane_wave_sums(phases, u)
    b -= s * np.einsum("qp,qp->q", s, b)[:, None]
    b *= weights[:, None]
    full = phases @ b
    full *= k**3 / (16.0 * np.pi**2)
    return 1j * full


def plane_wave_directions(k: float, x) -> int:
    """Q, the number of directions plane_wave_rule(k, x) takes, without building it."""
    n_theta, n_phi = _plane_wave_orders(k, np.asarray(x, dtype=float))
    return n_theta * n_phi


class PackedCoupling:
    """Base of the dense operators: a pair kernel stored as packed_pairs blocks.

    _pack stores the symmetric matrices of c_iso, and of c_dir for a
    Hessian kernel, once, real or complex, by one rule.  The imaginary
    parts are entire in r^2, and plane_wave_rule applies them exactly on
    the n points x of the operator in O(n Q).  So the blocks are stored
    real, with the rule's table, when that makes one matvec take fewer
    flops.  Matrix t multiplies columns[t] complex columns per matvec: a
    complex block takes 8 flops per entry and column, a real one half that
    (packed_product multiplies the columns viewed as float64), and the
    table's two (n, Q) products on 3 columns take 48 n Q.  So the blocks
    are real when

        12 n Q < sum_t packed_entries(len(points)) columns[t].

    The one-body operator's |G| character matrices take 6 columns each,
    which makes the rule 8 E + 16 n Q < 16 E for its E stored entries:
    fewer bytes as well, and its table holds only the R rows of its orbit
    representatives, the |G| characters' two (R, Q) products on 3 columns
    each taking 48 R |G| Q, about 48 n Q.  The many-body coupling's S_iso
    takes 3 and S2 15, so its rule is 2 M Q < 3 packed_entries(M), about
    Q < 0.75 M.  Points
    many wavelengths apart keep complex blocks.  The choice is made once,
    from the points and k alone, and the bytes of the branch taken pass
    linalg.check_dense_bytes before anything is allocated.

    The kernel is chosen with the branch: real blocks are summed by
    real_coupling_series to degree series_degree(k, x) while k D <= 1, and
    keep the real part of kernel_gradient_parts' or kernel_hessian_parts'
    complex values otherwise, as complex blocks do.  The arrays stay
    attributes of the operator, so that nbytes counts them: _packed and its
    block rows _blocks, and on the real branch the table's _phases (n, Q),
    or (R, Q) on the rows that _pack is given, _directions and _weights.
    directions is Q on the real branch and None otherwise; series is the
    degree of the series, None where the complex kernel ran.
    """

    directions = None
    series = None

    def _pack(self, points, center, k, x, columns, what, hessian=False, mirrors=None,
              rows=None):
        """Store packed_pairs(points, center, kernel, mirrors=mirrors), real or complex.

        The kernel is c_iso, or (c_iso, c_dir) when hessian.  x (n, 3) are
        the operator's points, centred, on which the table applies the
        imaginary parts; columns[t] counts the columns matrix t multiplies
        in one matvec, and what names the operator in the guard.  rows
        picks the points of x at which the table holds its phases, all by
        default: the one-body operator holds them at its orbit
        representatives, and the mirror images give the rest.
        """
        n, q, entries = len(x), plane_wave_directions(k, x), packed_entries(len(points))
        at = x if rows is None else x[rows]
        real = 12 * n * q < entries * sum(columns)
        stored = entries * len(columns)
        check_dense_bytes(8 * stored + 16 * len(at) * q if real else 16 * stored, what)
        degree = series_degree(k, x) if real else None
        if degree is not None:
            def kernel(r):
                return real_coupling_series(k, r, degree, hessian)
        elif hessian:
            def kernel(r):
                return kernel_hessian_parts(k, r)[1:]
        else:
            def kernel(r):
                return kernel_gradient_parts(k, r)[1]
        self._packed, self._blocks = packed_pairs(points, center, kernel,
                                                  float if real else complex, mirrors)
        if real:
            self.directions, self.series = q, degree
            self._phases, self._directions, self._weights = plane_wave_rule(k, x, at)

    @property
    def _table(self) -> tuple:
        """The real branch's plane-wave table, as radiative_field takes it."""
        return self._phases, self._directions, self._weights

    @property
    def nbytes(self) -> int:
        """Bytes held by the operator's stored arrays."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))


def moment_fields(k: float, sources, moments, x) -> tuple[np.ndarray, np.ndarray]:
    """Scattered E and curl E of point moments m_j at sources s_j.

    E(x) = sum_j grad g(x, s_j) x m_j and its curl sum_j (k^2 g + H) m_j,
    with H the kernel Hessian.  sources is real (m, 3), moments complex
    (m, 3); x is (3,) or (n, 3), n = 0 included, and both results have the
    leading shape of x.  The points are evaluated in row blocks of
    PAIR_BLOCK_BYTES of distances, as in pair_blocks, so memory does not
    grow with n.  Raises CoincidentPointsError when x lies on a source
    (closer than R_MIN_SCALE * max(1, max |x|)).
    """
    x = np.asarray(x, dtype=float)
    moments = np.asarray(moments, dtype=complex)
    points = x.reshape(-1, 3)
    guard = R_MIN_SCALE * max(1.0, float(np.abs(x).max())) if x.size else 0.0
    e = np.empty(points.shape, dtype=complex)
    curl = np.empty(points.shape, dtype=complex)
    rows = _block_rows(len(sources))
    for a in range(0, len(points), rows):
        e[a:a + rows], curl[a:a + rows] = _moment_fields_block(
            k, sources, moments, points[a:a + rows], guard
        )
    return e.reshape(x.shape), curl.reshape(x.shape)


def _moment_fields_block(k, sources, moments, x, guard):
    """moment_fields on an (n, 3) block of points."""
    diff = x[:, None, :] - sources
    r = np.linalg.norm(diff, axis=-1)
    if r.size and float(r.min()) < guard:
        index = np.unravel_index(np.argmin(r), r.shape)[-1]
        raise CoincidentPointsError(f"field evaluation point lies on source {index}")
    g, c_iso, c_dir = kernel_hessian_parts(k, r)
    # Sums over the sources as matrix products: a[n, p, q] =
    # sum_j grad_p g(x_n, s_j) m_jq, whose antisymmetric part is E.  Not the
    # GEMM _cross_sum form: a batch of rows rounds differently from one point
    # there (3.7e-13), and test_batch_matches_per_point_loop pins them equal.
    a = np.swapaxes(c_iso[..., None] * diff, -1, -2) @ moments
    e = np.stack([a[:, 1, 2] - a[:, 2, 1], a[:, 2, 0] - a[:, 0, 2],
                  a[:, 0, 1] - a[:, 1, 0]], axis=-1)
    d_dot_m = np.einsum("nmp,mp->nm", diff, moments)
    curl = (k * k * g + c_iso) @ moments + ((c_dir * d_dot_m)[:, None, :] @ diff)[:, 0, :]
    return e, curl
