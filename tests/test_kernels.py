"""Kernel values and derivatives against finite-difference oracles."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import emscat.kernels as kernels
import emscat.many_body as many_body
import emscat.one_body as one_body
from emscat.geometry import mesh_sphere
from emscat.kernels import (
    CoincidentPointsError,
    kernel_gradient_parts,
    kernel_hessian_parts,
    moment_fields,
    pair_distances,
    pair_matrix,
    plane_wave_rule,
    radiative_curl,
    radiative_field,
)
from emscat.one_body import _static_coefficient
from emscat.waves import default_wave
from kernel_oracle import green

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


@pytest.mark.parametrize("kd", [0.5, 3.0, 12.0])
def test_plane_wave_rule_matches_the_closed_form_radiative_parts(kd):
    # points in a cube of diagonal kd / K; pairs with k r >= 0.1, where the
    # closed forms cancel mildly
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, size=(12, 3)) * kd / (np.sqrt(3.0) * K)
    phases, s, w = plane_wave_rule(K, x)
    assert phases.shape == (12, len(w)) and s.shape == (len(w), 3)
    scale = K**3 / (6.0 * np.pi)  # the r -> 0 limit of Im (k^2 g + H)
    for m, j in zip(*np.triu_indices(12, 1)):
        if K * np.linalg.norm(x[m] - x[j]) < 0.1:
            continue
        ker = green(K, x[m], x[j])
        e = w * phases[m] * phases[j].conj()
        value = K / (16.0 * np.pi**2) * e.sum()
        gradient = K * K / (16.0 * np.pi**2) * (1j * e) @ s
        curl = K**3 / (16.0 * np.pi**2) * (e.sum() * np.eye(3) - (s.T * e) @ s)
        assert abs(value - ker.value.imag) <= 1e-14 * K / (4.0 * np.pi)
        np.testing.assert_allclose(gradient, ker.gradient.imag, rtol=0,
                                   atol=1e-14 * K * K / (4.0 * np.pi))
        np.testing.assert_allclose(
            curl, (K * K * ker.value * np.eye(3) + ker.hessian).imag, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("kd", [0.2, 3.0, 12.0])
def test_plane_wave_rule_is_converged_to_rounding(kd):
    # the corners of a cube of diagonal kd / K, whose opposite corners are
    # the farthest pair the rule is built for, and points inside it; a point
    # one and a half diagonals away makes the rule several degrees finer on
    # the same points.  Every pair's three integrals agree with it to the
    # rounding of sums over the directions, at every k r, zero included.
    corners = np.stack(np.meshgrid(*[[-0.5, 0.5]] * 3), axis=-1).reshape(-1, 3)
    inside = np.random.default_rng(13).uniform(-0.5, 0.5, size=(4, 3))
    x = np.vstack([corners, inside]) * kd / (np.sqrt(3.0) * K)
    phases, s, w = plane_wave_rule(K, x)
    fine = plane_wave_rule(K, np.vstack([x, [1.5 * kd / K] * 3]))
    assert len(fine[2]) > len(w)

    def integrals(phases, s, w):
        e = w * phases[:, None, :] * phases[None, :, :].conj()
        return e.sum(axis=-1), e @ s, np.einsum("mjq,qp,qr->mjpr", e, s, s)

    for coarse, exact in zip(integrals(phases, s, w), integrals(fine[0][:12], *fine[1:])):
        np.testing.assert_allclose(coarse, exact, rtol=0, atol=32 * np.finfo(float).eps * 4 * np.pi)


@pytest.mark.parametrize("kd", [0.2, 1.0, 3.0])
def test_radiative_sums_match_green_pair_sums(kd):
    # a jittered 3 x 3 x 3 grid whose bounding box has diagonal kd / K, off
    # the origin: its pairs keep k r above a tenth of kd, where the closed
    # forms of green() cancel mildly.  The curl sum takes the self pair at its
    # r -> 0 limit (k^3 / 6 pi) I, the field sum has none.
    rng = np.random.default_rng(14)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    x = grid + rng.uniform(-0.2, 0.2, grid.shape)
    x = (2.0, -1.0, 3.0) + x * kd / (K * np.linalg.norm(np.ptp(x, axis=0)))
    u = rng.normal(size=(27, 3)) + 1j * rng.normal(size=(27, 3))
    table = plane_wave_rule(K, x - x.mean(axis=0))
    field = np.zeros((27, 3), dtype=complex)
    curl = 1j * K**3 / (6.0 * np.pi) * u
    for m, j in zip(*np.nonzero(~np.eye(27, dtype=bool))):
        ker = green(K, x[m], x[j])
        field[m] += 1j * np.cross(ker.gradient.imag, u[j])
        curl[m] += 1j * (K * K * ker.value * np.eye(3) + ker.hessian).imag @ u[j]
    for got, expected in ((radiative_field(K, table, u), field), (radiative_curl(K, table, u), curl)):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pair_matrix_keeps_the_real_part_for_a_float_dtype():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(40, 3)) * 1e-7
    weights = rng.uniform(0.5, 2.0, 40)
    for kernel in (lambda r: kernel_gradient_parts(K, r)[1], lambda r: kernel_hessian_parts(K, r)):
        full = pair_matrix(points, points.mean(axis=0), kernel, weights=weights)
        real = pair_matrix(points, points.mean(axis=0), kernel, weights=weights, dtype=float)
        assert real.dtype == float and np.array_equal(real, full.real)


def test_plane_wave_rule_is_antipodal_with_the_exact_self_term():
    x = np.random.default_rng(12).normal(size=(5, 3)) / K
    _, s, w = plane_wave_rule(K, x)
    # s -> -s maps the rule onto itself, so the separable parts come out real
    opposite = np.abs(s[:, None, :] + s[None, :, :]).sum(axis=-1).argmin(axis=1)
    np.testing.assert_allclose(s[opposite], -s, atol=1e-15)
    np.testing.assert_array_equal(w[opposite], w)
    assert w.sum() == pytest.approx(4.0 * np.pi, rel=1e-15)
    # the r -> 0 limits: int ds = 4 pi, int s ds = 0, int s s^T ds = 4 pi / 3 I
    np.testing.assert_allclose(w @ s, 0.0, atol=1e-14)
    np.testing.assert_allclose((s.T * w) @ s, 4.0 * np.pi / 3.0 * np.eye(3), rtol=1e-14,
                               atol=1e-14)


def test_plane_wave_orders_of_a_cm_size_layout_are_finite():
    # k D = 1.8e5: the double factorial in the truncation bound is far past
    # the float range, so the bound is taken in logs
    n_theta, n_phi = kernels._plane_wave_orders(K, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    assert n_theta * n_phi > 1e10
    assert kernels._plane_wave_orders(0.0, np.zeros((3, 3))) == (2, 4)


def test_plane_wave_orders_match_a_degree_by_degree_search():
    # the smallest degree L from floor(kD) up with 4 t_{L+1} below the
    # tolerance, found one degree at a time, against the doubling search
    log_tol = math.log(kernels.PLANE_WAVE_TOL / 4.0)

    def degree_by_degree(kd):
        degree = math.floor(kd)
        while True:
            l = degree + 1
            log_t = (math.log(2 * l + 1) + l * math.log(kd)
                     - math.lgamma(2 * l + 2) + l * math.log(2.0) + math.lgamma(l + 1))
            if log_t < log_tol:
                return degree
            degree = l

    pair = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    kds = [*np.logspace(-8, 3, 300), *range(1, 60), *(n - 1e-12 for n in range(1, 60))]
    for kd in kds:
        n_theta = degree_by_degree(kd) // 2 + 2
        assert kernels._plane_wave_orders(kd, pair) == (n_theta, 2 * n_theta), kd


def test_kernel_hessian_parts_bits_do_not_depend_on_the_array_size():
    # numpy reuses large temporaries in place from 16384 complex elements
    # up, which changed the last bits of a one-expression evaluation;
    # kernel_gradient_parts is the first stage and gives the first two parts
    r = np.random.default_rng(4).uniform(1e-8, 1e-5, 20_000)
    whole = kernel_hessian_parts(K, r)
    for part, stage in zip(whole, kernel_gradient_parts(K, r)):
        assert np.array_equal(part, stage)
    for a in range(0, 20_000, 1000):
        for size in (1, 1000):
            piece = r[a:a + size]
            for part, block in zip(whole, kernel_hessian_parts(K, piece)):
                assert np.array_equal(part[a:a + size], block)
            for part, block in zip(whole, kernel_gradient_parts(K, piece)):
                assert np.array_equal(part[a:a + size], block)


def test_pair_distances_match_pairwise_norms():
    rng = np.random.default_rng(17)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(30, 3)) * 1e-7
    r = pair_distances(points, points.mean(axis=0))
    expected = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(r, expected, rtol=1e-8)
    with pytest.raises(CoincidentPointsError, match="points 4 and 30 are coincident"):
        pair_distances(np.vstack([points, points[4]]), points.mean(axis=0))


# --- pair_matrix ---------------------------------------------------------------

#: Rows per pair_matrix block in the tests below (PAIR_BLOCK_BYTES patched).
ROWS = 4

PAIR_KERNELS = {
    "weighted-complex": (lambda r: kernel_gradient_parts(K, r)[1], True, complex),
    "real-static": (_static_coefficient, False, float),
    "unweighted-complex": (lambda r: kernel_gradient_parts(K, r)[1], False, complex),
    "weighted-tuple": (lambda r: kernel_hessian_parts(K, r), True, complex),
}


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
        r = kernels._distances(x, x * signs)
        self_pairs = np.flatnonzero(ids[0] == ids[1])
        r[self_pairs, self_pairs] = 1.0
    c = kernel(r)
    if isinstance(c, tuple):
        c = np.stack(c)
    if weights is not None:
        c *= weights
    c[..., self_pairs, self_pairs] = 0.0
    return c


def block_rows(monkeypatch, p):
    monkeypatch.setattr(kernels, "PAIR_BLOCK_BYTES", 8 * p * ROWS)


@pytest.mark.parametrize("kind", PAIR_KERNELS)
@pytest.mark.parametrize("p", [1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS - 1, 2 * ROWS + 1,
                               5 * ROWS + 2])
def test_pair_matrix_equals_full_construction(monkeypatch, kind, p):
    block_rows(monkeypatch, p)
    rng = np.random.default_rng(p)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(p, 3)) * 1e-7
    kernel, weighted, dtype = PAIR_KERNELS[kind]
    weights = rng.uniform(0.5, 2.0, p) if weighted else None
    center = points.mean(axis=0)
    got = pair_matrix(points, center, kernel, weights=weights, dtype=dtype)
    assert got.dtype == dtype
    assert got.shape == ((3,) if kind == "weighted-tuple" else ()) + (p, p)
    assert np.array_equal(got, full_pair_matrix(points, center, kernel, weights))


@pytest.mark.parametrize("kind", PAIR_KERNELS)
def test_pair_matrix_equals_full_construction_in_full_blocks(kind):
    # the default PAIR_BLOCK_BYTES gives row blocks of 218 x 300 and 82 x 82
    # pairs against the 300 x 300 of the full construction
    rng = np.random.default_rng(300)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(300, 3)) * 1e-7
    kernel, weighted, dtype = PAIR_KERNELS[kind]
    weights = rng.uniform(0.5, 2.0, 300) if weighted else None
    center = points.mean(axis=0)
    got = pair_matrix(points, center, kernel, weights=weights, dtype=dtype)
    assert np.array_equal(got, full_pair_matrix(points, center, kernel, weights))


def one_shot_packed_pairs(points, center, kernel, dtype=complex, mirrors=None):
    """Stand-in for packed_pairs that packs the full construction's matrices.

    With mirrors, the full matrices of each pass are summed through the
    character table in the order packed_pairs sums its block rows.
    """
    signs, ids, characters = mirrors or ((None,), (None,), np.ones((1, 1)))
    terms = []
    for g, (sign, pair_ids) in enumerate(zip(signs, ids)):
        s = full_pair_matrix(points, center, kernel, None, sign, pair_ids)
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


def one_shot_pair_blocks(points, center, kernel, signs=None, ids=None):
    """Stand-in for pair_blocks that yields the full construction's upper block rows."""
    c = full_pair_matrix(points, center, kernel, None, signs, ids)
    for a, b, view in packed(c[None]):
        yield a, b, view[0]


def _one_body_c(mesh, layout):
    # the stored coefficients: C split into one matrix D per character of
    # the mesh's mirror group, in packed upper block rows
    operator = one_body.OneBodyOperator(mesh, K)
    assert operator.mirrors == ("y", "z")
    return operator._packed


def _gamma_numeric(mesh, layout):
    return one_body.gamma_numeric(mesh, frame="lab").gamma


def _fields_at_centers(mesh, layout):
    # a dense solve forms the fields at the centres from its own coupling
    # matrices, so the operator's one packed_pairs call feeds both
    wave = default_wave()
    solution = many_body.solve_effective_field(layout, wave, one_body.gamma_sphere_analytic())
    assert solution.operator["coupling"] == "dense"
    return many_body.effective_field_at_centers(layout, wave, solution)


#: Callers of the pair pass: the module that imports it, the name of the
#: builder and its one-shot stand-in, and a function of (mesh, layout)
#: returning the caller's result.
PAIR_MATRIX_CALLERS = {
    "one-body-C": (one_body, "packed_pairs", one_shot_packed_pairs, _one_body_c),
    "gamma-numeric": (one_body, "pair_blocks", one_shot_pair_blocks, _gamma_numeric),
    "effective-field-at-centers": (many_body, "packed_pairs", one_shot_packed_pairs,
                                   _fields_at_centers),
}


@pytest.mark.parametrize("caller", PAIR_MATRIX_CALLERS)
def test_pair_matrix_callers_match_one_shot_construction(monkeypatch, caller):
    module, name, one_shot, run = PAIR_MATRIX_CALLERS[caller]
    mesh = mesh_sphere(1e-9, 5, center=(0.1, 0.2, 0.3))  # P = 119
    rng = np.random.default_rng(9)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = (grid * 1.5 + 1.0 + rng.uniform(-0.2, 0.2, grid.shape)) * 1e-7
    layout = many_body.layout_from_centers(
        centers, 1e-7, 1e-9, volumes=rng.uniform(0.5, 2.0, 27) * 1e-22)
    count = mesh.n_points if module is one_body else layout.count
    block_rows(monkeypatch, count)  # several blocks and a ragged last one
    assert count % ROWS and count > 2 * ROWS
    blocked = run(mesh, layout)
    # the packed stand-in keeps the block rows, so its products sum in the same order
    monkeypatch.setattr(module, name, one_shot)
    assert np.array_equal(blocked, run(mesh, layout))


def packed(s):
    """A symmetric (n, P, P) stack s laid out as packed_pairs' upper block rows."""
    p = s.shape[-1]
    step = kernels._block_rows(p)
    return [(a, min(p, a + step), np.ascontiguousarray(s[:, a:a + step, a:]))
            for a in range(0, p, step)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("p", [2, ROWS - 1, ROWS + 1, 5 * ROWS + 2])
def test_packed_product_equals_full_product(monkeypatch, dtype, p):
    # ROWS rows per block: P = 2 and ROWS - 1 lie below one block, the
    # others end in a ragged one
    block_rows(monkeypatch, p)
    rng = np.random.default_rng(p)
    s = rng.normal(size=(2, p, p))
    if dtype is complex:
        s = s + 1j * rng.normal(size=(2, p, p))
    s = s + np.swapaxes(s, 1, 2)  # symmetric, not Hermitian, diagonal included
    blocks = packed(s)
    assert [b for _, b, _ in blocks][-1] == p and len(blocks) == -(-p // ROWS)
    z = rng.normal(size=(p, 5)) + 1j * rng.normal(size=(p, 5))
    for part in range(2):
        got = kernels.packed_product(blocks, part, z)
        assert got.shape == z.shape and got.dtype == complex
        error = np.linalg.norm(got - s[part] @ z)
        assert error <= 1e-14 * np.linalg.norm(s[part]) * np.linalg.norm(z)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("p", [1, ROWS - 1, 5 * ROWS + 2])
def test_packed_pairs_are_the_upper_block_rows_of_pair_matrix(monkeypatch, dtype, p):
    block_rows(monkeypatch, p)
    rng = np.random.default_rng(p)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(p, 3)) * 1e-7
    center = points.mean(axis=0)
    kernel = lambda r: kernel_hessian_parts(K, r)[1:]
    buffer, blocks = kernels.packed_pairs(points, center, kernel, dtype=dtype)
    assert buffer.dtype == dtype and buffer.size == 2 * kernels.packed_entries(p)
    full = pair_matrix(points, center, kernel, dtype=dtype)
    assert [(a, b) for a, b, _ in blocks] == [(a, b) for a, b, _ in packed(full)]
    for (_, _, view), (_, _, expected) in zip(blocks, packed(full)):
        assert np.shares_memory(view, buffer) and np.array_equal(view, expected)


@pytest.mark.parametrize("p", [1, ROWS + 1, 5 * ROWS + 2])
def test_mirrored_pair_matrix_equals_full_construction(monkeypatch, p):
    block_rows(monkeypatch, p)
    rng = np.random.default_rng(p)
    points = (1.0, 2.0, 3.0) + rng.normal(size=(p, 3)) * 1e-7
    weights = rng.uniform(0.5, 2.0, p)
    center = points.mean(axis=0)
    signs = np.array([1.0, -1.0, -1.0])
    # every third point is fixed by the mirror: only its self pair is zeroed
    ids = (np.arange(p), np.where(np.arange(p) % 3 == 0, np.arange(p), p + np.arange(p)))
    kernel = lambda r: kernel_gradient_parts(K, r)[1]
    got = pair_matrix(points, center, kernel, weights=weights, signs=signs, ids=ids)
    expected = full_pair_matrix(points, center, kernel, weights, signs, ids)
    # the one-shot construction evaluates both triangles: |x_i - R x_j| = |x_j - R x_i|
    assert np.array_equal(got, expected)
    fixed = np.arange(p) % 3 == 0
    assert np.all(np.diag(got)[fixed] == 0) and np.all(np.diag(got)[~fixed] != 0)


def test_mirrored_pair_matrix_names_coincident_images(monkeypatch):
    p = 3 * ROWS
    block_rows(monkeypatch, p)
    points = np.random.default_rng(2).normal(size=(p, 3)) * 1e-7
    signs = np.array([1.0, -1.0, 1.0])
    points[7] = points[2] * signs  # point 7 is the mirror image of point 2
    ids = (np.arange(p), 100 + np.arange(p))
    with pytest.raises(CoincidentPointsError, match="points 2 and 107 are coincident"):
        pair_matrix(points, np.zeros(3), np.reciprocal, dtype=float, signs=signs, ids=ids)


@pytest.mark.parametrize("i, j", [(5, 6), (1, 9)], ids=["inside-one-block", "across-blocks"])
def test_pair_matrix_names_coincident_points(monkeypatch, i, j):
    p = 3 * ROWS
    block_rows(monkeypatch, p)
    points = np.random.default_rng(2).normal(size=(p, 3)) * 1e-7
    points[j] = points[i]
    with pytest.raises(CoincidentPointsError, match=f"points {i} and {j} are coincident"):
        pair_matrix(points, points.mean(axis=0), np.reciprocal, dtype=float)


# --- moment_fields row blocks ----------------------------------------------------

def test_moment_field_map_is_row_blocked(monkeypatch, sphere766):
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(10_000, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    x = sphere766.center + direction * rng.uniform(2e-9, 1e-7, (10_000, 1))
    moments = rng.normal(size=(sphere766.n_points, 3)) + 1j * rng.normal(
        size=(sphere766.n_points, 3))
    tracemalloc.start()
    try:
        e, curl = moment_fields(K, sphere766.points, moments, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one batch of 10^4 x 766 pairs would hold about 1.2 GB at 160 B per pair
    assert peak <= 16 * 2**20
    # the unblocked evaluation, on every tenth point to keep it small
    monkeypatch.setattr(kernels, "PAIR_BLOCK_BYTES", 2**62)
    e_ref, curl_ref = moment_fields(K, sphere766.points, moments, x[::10])
    np.testing.assert_allclose(e[::10], e_ref, rtol=1e-14)
    np.testing.assert_allclose(curl[::10], curl_ref, rtol=1e-14)
