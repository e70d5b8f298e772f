"""Coupled point-moment solver for many small perfectly conducting bodies.

Each body m is reduced to one moment Q_m = -|D_m| A_m; the vectors A_m solve

    A_m + sum_{j != m} tau [k^2 g(x_m, x_j) A_j + H(x_m, x_j) A_j] |D_j| = A0_m

with H the kernel Hessian, tau = (I + gamma)^-1 and A0_m = tau (curl E0)(x_m);
the whole matrix tau multiplies both the coupling and the right-hand side.
The solved moments give the scattered field by superposition of
grad g x Q_m terms.

The coupling is applied along one of two paths, chosen from the centres alone:

* fft -- when the centres form a full regular nx x ny x nz grid in x-fastest
  order (``ManyBodyLayout.grid``), the coupling block depends only on
  x_m - x_j, so the system is three-level block-Toeplitz.  Its six unique
  kernel components are sampled once on the (2n-1)^3 offsets, embedded in a
  zero-padded (2n)^3 circulant and applied by FFT in O(M log M) time and
  O(M) memory (Goodman, Draine & Flatau, Opt. Lett. 16, 1198, 1991).  The
  field at the centres is the same convolution with the gradient kernel.
* dense -- any other layout stores the coupling once: the two symmetric
  (M, M) scalar matrices S_iso = c_iso and S2 = c_dir, unweighted, as the
  packed upper block rows of kernels.packed_pairs, built in one pass over
  the upper triangle in row blocks and applied by kernels.packed_product
  (two GEMMs per block row); C = S diag(|D|), so each product scales its
  columns by the volumes first.  By the Helmholtz trace identity
  k^2 g + c_iso = -2 c_iso - c_dir r^2 and d x (d x A) = d (d . A) - r^2 A,
  block (m, j) is (-2 S_iso I + S2 [d]x^2) |D_j| with d = x_m - x_j.
  Expanding d in coordinates centred on the layout turns the matvec into
  S_iso @ U and one (M, M) x (M, 15) product S2 @ [U, x (x) U, x x (x x U)]
  with U = |D| A, plus O(M) contractions.  Since grad g(x_m, x_j) =
  c_iso (x_m - x_j), the field at the centres is one (M, M) x (M, 6)
  product S_iso @ [Q, x x Q].
  The imaginary part of the kernel is entire in r^2 and, in the paper's
  regime a << d << lambda, close to low rank, so S_iso and S2 are stored
  real with the plane-wave table of the centres, or complex, by
  kernels.PackedCoupling's rule.

The solve forms that field with its own operator; the solution carries it
with its centres and wave, which every field function checks it is given.

``ManyBodyOperator.to_dense`` builds the blocks k^2 g + c_iso and c_dir from
pairwise differences of the raw centres on both paths, never from the stored
S_iso, so it is an independent oracle for both matvecs.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (CoincidentPointsError, PackedCoupling, _cross, _cross_columns,
                      _cross_sum, _moment_columns, kernel_hessian_parts, moment_fields,
                      packed_product, pair_matrix, radiative_curl, radiative_field)
from .linalg import (SolveReport, check_count, check_dense_bytes, check_positive,
                     check_solver, solve_operator)
from .one_body import GammaMatrix
from .waves import IncidentWave

__all__ = [
    "LatticeGrid",
    "ManyBodyLayout",
    "EffectiveFieldSolution",
    "ManyBodyOperator",
    "lattice_layout",
    "layout_from_centers",
    "assemble_many_body",
    "solve_effective_field",
    "field_e_many",
    "field_h_many",
    "effective_field_at_centers",
    "error_estimate_many",
]

#: Largest body-size to spacing ratio the asymptotic system is trusted for.
RATIO_WARN_THRESHOLD = 0.1

SPHERE_VOLUME_COEFF = 4.0 / 3.0 * np.pi

#: Centres within this fraction of their largest coordinate of a regular grid
#: count as lying on it: well above the ~1e-15 rounding of computed or
#: CSV-printed coordinates, far below any deliberate displacement.
GRID_RTOL = 1e-13


@dataclass(frozen=True)
class LatticeGrid:
    """Regular grid of centres, x index fastest.

    Center i sits at centers[0] + (ix hx, iy hy, iz hz) with
    i = ix + nx (iy + ny iz); counts is (nx, ny, nz) and steps (hx, hy, hz)
    in cm (0 along an axis with a single layer).
    """

    counts: tuple[int, int, int]
    steps: tuple[float, float, float]


@dataclass(frozen=True)
class ManyBodyLayout:
    """Particle centers, common radius/spacing and per-body volumes.

    box is ((xmin, ymin, zmin), (xmax, ymax, zmax)) in cm.  box, spacing
    (> 0), radius and volumes (>= 0) and the centers must be finite, and the
    centers must lie inside the box and at least spacing apart.
    grid is derived from the centers: the regular grid they form, or None.
    """

    centers: np.ndarray
    radius: float
    spacing: float
    volumes: np.ndarray
    box: tuple[tuple[float, float, float], tuple[float, float, float]]
    grid: LatticeGrid | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        check_positive("layout spacing", self.spacing)
        check_positive("layout radius", self.radius, zero=True)
        try:
            box = np.asarray(self.box)
        except ValueError:  # a ragged nesting
            box = np.asarray(None)
        if box.dtype.kind not in "iuf" or box.shape != (2, 3) or not np.isfinite(box).all():
            raise ValueError(f"layout box must be two finite corners, got {self.box!r}")
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "volumes", np.asarray(self.volumes, dtype=float))
        if centers.shape[1] != 3:
            raise ValueError("centers must be (M, 3)")
        if centers.shape[0] == 0:
            raise ValueError("a layout needs at least 1 center, got 0")
        if self.volumes.shape != (centers.shape[0],):
            raise ValueError("one volume per center required")
        bad = np.flatnonzero(~np.isfinite(centers).all(axis=1))
        if bad.size:
            raise ValueError(f"layout centers must be finite, got {centers[bad[0]]} "
                             f"at center {bad[0]}")
        # zero is the vanishing-body limit, whose moments are zero
        bad = np.flatnonzero(~(np.isfinite(self.volumes) & (self.volumes >= 0)))
        if bad.size:
            raise ValueError(f"layout volumes must be finite and not negative, got "
                             f"{self.volumes[bad[0]]} at center {bad[0]}")
        if np.any(centers < box[0] - 1e-12) or np.any(centers > box[1] + 1e-12):
            raise ValueError("centers must lie inside the box")
        grid = _detect_grid(centers)
        object.__setattr__(self, "grid", grid)
        if centers.shape[0] > 1:
            if grid is not None:
                min_dist = min(h for n, h in zip(grid.counts, grid.steps) if n > 1)
            else:
                min_dist = _min_pairwise_distance(centers)
            if min_dist < self.spacing * (1.0 - 1e-12):
                raise ValueError(
                    f"minimum center distance {min_dist:.3e} below spacing {self.spacing:.3e}"
                )
        if self.radius >= self.spacing:
            raise ValueError("bodies overlap: radius >= spacing")
        if self.radius / self.spacing > RATIO_WARN_THRESHOLD:
            warnings.warn(
                f"radius/spacing = {self.radius / self.spacing:.3g} exceeds the "
                "asymptotic regime; results degrade",
                stacklevel=3,
            )

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def _detect_grid(centers: np.ndarray) -> LatticeGrid | None:
    """The regular x-fastest grid the centers form, or None; O(M)."""
    m = centers.shape[0]
    origin = centers[0]
    tol = GRID_RTOL * float(np.abs(centers).max())
    dev = np.abs(centers - origin)
    # nx: length of the leading row sharing the origin's y and z; ny: number
    # of such rows sharing its z
    off_row = (dev[:, 1] > tol) | (dev[:, 2] > tol)
    nx = int(np.argmax(off_row)) if off_row.any() else m
    if m % nx:
        return None
    off_plane = dev[::nx, 2] > tol
    ny = int(np.argmax(off_plane)) if off_plane.any() else m // nx
    if (m // nx) % ny:
        return None
    counts = (nx, ny, m // (nx * ny))
    strides = (1, nx, nx * ny)
    steps = tuple(
        float(centers[s * (n - 1), p] - origin[p]) / (n - 1) if n > 1 else 0.0
        for p, (n, s) in enumerate(zip(counts, strides))
    )
    if any(n > 1 and h <= tol for n, h in zip(counts, steps)):
        return None
    index = np.arange(m)
    ideal = origin + np.stack(
        [(index // s) % n * h for n, s, h in zip(counts, strides, steps)], axis=1
    )
    if np.abs(centers - ideal).max() > tol:
        return None
    return LatticeGrid(counts=counts, steps=steps)


def _min_pairwise_distance(centers: np.ndarray) -> float:
    """Smallest center distance: sorted along the widest axis, each center meets
    the one t = 1, 2, ... places later until the smallest gap along that axis,
    which only grows with t, reaches the best distance; O(M^(5/3)) in a cube."""
    axis = int(np.ptp(centers, axis=0).argmax())
    c = np.ascontiguousarray(centers[np.argsort(centers[:, axis], kind="stable")].T)
    best = np.inf
    for t in range(1, c.shape[1]):
        d = c[:, t:] - c[:, :-t]
        if d[axis].min() >= best:
            break
        best = min(best, float(np.sqrt((d * d).sum(axis=0).min())))
    return best


def lattice_layout(
    count: int,
    spacing: float,
    radius: float,
    box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
) -> ManyBodyLayout:
    """Regular n x n x n lattice anchored at the low corner of the box.

    count must be a perfect cube; centers are box_min + (i, j, l) * spacing
    with i (the x index) varying fastest.  Each body has the volume of a
    sphere of the given radius.
    """
    # least 0: an empty lattice is refused as an empty layout
    check_count("count", count, 0)
    check_positive("layout spacing", spacing)  # before they place and size the bodies
    check_positive("layout radius", radius, zero=True)
    n = round(count ** (1.0 / 3.0))
    if n**3 != count:
        raise ValueError(
            f"count must be a positive perfect cube for lattice placement, got {count}; "
            "use layout_from_centers for irregular configurations"
        )
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    if np.any(lo + (n - 1) * spacing > hi + 1e-15):
        raise ValueError("lattice does not fit inside the box")
    idx = np.arange(n) * spacing
    zz, yy, xx = np.meshgrid(idx, idx, idx, indexing="ij")
    centers = lo + np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    return ManyBodyLayout(
        centers=centers,
        radius=radius,
        spacing=spacing,
        volumes=np.full(count, SPHERE_VOLUME_COEFF * radius**3),
        box=(tuple(lo), tuple(hi)),
    )


def layout_from_centers(
    centers,
    spacing: float,
    radius: float,
    box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    volumes=None,
) -> ManyBodyLayout:
    """Layout from an explicit center list (general counts allowed)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if volumes is None:
        check_positive("layout radius", radius, zero=True)  # before it sizes the volumes
        volumes = np.full(centers.shape[0], SPHERE_VOLUME_COEFF * radius**3)
    return ManyBodyLayout(
        centers=centers, radius=radius, spacing=spacing, volumes=np.asarray(volumes),
        box=(tuple(box[0]), tuple(box[1])),
    )


def layout_from_csv(path, spacing: float, radius: float, box=((0, 0, 0), (1, 1, 1))):
    """Read centers from an x,y,z[,volume] CSV, skipping lines that start with #.

    Reads the centers.csv written by `emscat many-body`.  Raises ValueError
    naming the file and line for a missing x, y or z column, a short row or a
    cell that is not a number.
    """
    with open(path, newline="") as fh:
        lines = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in lines)
    header = reader.fieldnames or []
    columns = [name for name in ("x", "y", "z", "volume") if name in header]
    missing = [name for name in "xyz" if name not in columns]
    if header and missing:
        raise ValueError(f"{path} line {lines[reader.line_num - 1][0]}: "
                         f"no {', '.join(missing)} column in the header")
    rows = []
    for row in reader:
        where = f"{path} line {lines[reader.line_num - 1][0]}"
        values = []
        for name in columns:
            if row[name] is None:
                raise ValueError(f"{where}: short row, no {name} cell")
            try:
                values.append(float(row[name]))
            except ValueError:
                raise ValueError(f"{where}: {name} cell {row[name]!r} is not a number") from None
        rows.append(values + [SPHERE_VOLUME_COEFF * radius**3] * (4 - len(values)))
    if not rows:
        raise ValueError(f"{path} holds no center rows")
    data = np.array(rows)
    return layout_from_centers(
        data[:, :3], spacing=spacing, radius=radius, box=box, volumes=data[:, 3]
    )


#: Unique (p, q) components of a symmetric 3 x 3 block, and the index of
#: component (p, q) in that list.
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _grid_kernel_parts(grid: LatticeGrid, wavenumber: float):
    """Kernel value and Hessian parts at every offset of the padded grid.

    The zero-padded grid has 2n points per axis in FFT order: index o holds
    the offset o h for o < n and (o - 2n) h otherwise.  Returns
    (diff, g, c_iso, c_dir) as in kernel_hessian_parts, diff of shape
    (2nz, 2ny, 2nx, 3), with every term zeroed at zero separation (the self
    term).
    """
    axes = []
    for n, h in zip(grid.counts, grid.steps):
        o = np.arange(2 * n)
        o[n:] -= 2 * n
        axes.append(o * h)
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    diff = np.stack([xx, yy, zz], axis=-1)
    r = np.linalg.norm(diff, axis=-1)
    self_term = r == 0.0
    r[self_term] = 1.0
    parts = kernel_hessian_parts(wavenumber, r)
    for part in parts:
        part[self_term] = 0.0
    return (diff, *parts)


def _grid_spectrum(values: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    """FFT of per-center columns (M, c), zero-padded to (c, 2nz, 2ny, 2nx).

    fftn pads one axis at a time, x first, so no transform runs over the
    all-zero half of an axis not yet transformed.
    """
    nx, ny, nz = grid.counts
    cube = values.T.reshape(values.shape[1], nz, ny, nx)
    return np.fft.fftn(cube, s=(2 * nz, 2 * ny, 2 * nx), axes=(1, 2, 3))


def _grid_values(spectrum: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    """Inverse of _grid_spectrum: per-center columns (M, c) of a product.

    Each axis is cropped to the centers right after its inverse transform,
    so the later transforms skip the padding.
    """
    nx, ny, nz = grid.counts
    cube = np.fft.ifft(spectrum, axis=1)[:, :nz]
    cube = np.fft.ifft(cube, axis=2)[:, :, :ny]
    cube = np.fft.ifft(cube, axis=3)[..., :nx]
    return cube.reshape(spectrum.shape[0], -1).T


class ManyBodyOperator(PackedCoupling):
    """Matrix-free application of the 3M x 3M effective-field system.

    coupling is "fft" on a grid layout (the FFT of the six unique Hessian
    kernel components is stored, O(M) memory) and "dense" otherwise.  The
    dense path stores the symmetric scalar matrices S_iso = c_iso and
    S2 = c_dir once, unweighted and with zero self terms, as the packed
    upper block rows of one kernels.packed_pairs pass over the centres: one
    flat buffer _packed, whose (2, b - a, M - a) block rows _blocks views,
    and the centres x relative to their mean.  The coupling is
    C = S diag(|D|), so every product applies S to columns already scaled
    by the volumes.  Block (m, j) is (k^2 g + c_iso) |D_j| I + c_dir |D_j| d d^T
    with d = x_m - x_j; since the Hessian's trace is -k^2 g,
    k^2 g + c_iso = -2 c_iso - c_dir r^2, so the block is
    (-2 S_iso_mj I + S2_mj [d]x^2) |D_j|, [d]x^2 v = d x (d x v).  With
    U = |D| A, P = S2 @ U and X[m, p, q] = sum_j S2_mj x_jp U_jq,

        sum_j S2_mj d x (d x U_j) = x_m x (x_m x P_m) - x_m tr X_m - X_m x_m
                                    + 2 X_m^T x_m + (S2 @ (x x (x x U)))_m

    one product of S2 with the 15 columns [U, x (x) U, x x (x x U)], one of
    S_iso with U (kernels.packed_product, two GEMMs per block row), and
    O(M) contractions.  Centring keeps the terms from cancelling for a
    cluster far from the origin.

    The blocks are stored real, with the plane-wave table on the centres,
    or complex by kernels.PackedCoupling's rule, with 3 columns for S_iso
    and 15 for S2; real blocks are summed by the series in (kr)^2 while
    k D <= 1 (record["series"] gives its degree).  On the real branch the
    imaginary part
    i Im (k^2 g I + H) is summed over every j by two (M, Q) products
    (kernels.radiative_curl), less its self term (k^3 / 6 pi) |D_m| at
    j = m, and the field at the centres gains sum_j i Im grad g x Q_j
    (kernels.radiative_field).
    """

    def __init__(self, layout: ManyBodyLayout, wavenumber: float, gamma: GammaMatrix):
        self._layout = layout
        self._wavenumber = wavenumber
        self._tau = gamma.tau
        self.count = layout.count
        self.shape = (3 * self.count, 3 * self.count)
        self.coupling = "dense" if layout.grid is None else "fft"
        k = wavenumber
        if layout.grid is None:
            center = layout.centers.mean(axis=0)
            self._x = layout.centers - center
            self._pack(layout.centers, center, k, self._x, (3, 15),
                       "the dense many-body operator", hessian=True)
            return
        diff, g, c_iso, c_dir = _grid_kernel_parts(layout.grid, k)
        components = np.stack([
            c_dir * diff[..., p] * diff[..., q] + (k * k * g + c_iso if p == q else 0.0)
            for p, q in _SYM_PAIRS
        ])
        self._kernel_hat = np.fft.fftn(components, axes=(1, 2, 3))

    @property
    def record(self) -> dict:
        """What the operator is, as the artifacts write it: its coupling path,
        bytes, plane-wave directions (None unless the dense blocks are real)
        and the degree of the series that summed real blocks (None where the
        complex kernel did)."""
        return {"coupling": self.coupling, "bytes": self.nbytes, "directions": self.directions,
                "series": self.series}

    def _coupling(self, a: np.ndarray) -> np.ndarray:
        if self.coupling == "fft":
            grid = self._layout.grid
            a_hat = _grid_spectrum(a * self._layout.volumes[:, None], grid)
            out_hat = np.stack([
                sum(self._kernel_hat[_SYM_INDEX[p][q]] * a_hat[q] for q in range(3))
                for p in range(3)
            ])
            out = _grid_values(out_hat, grid)
        else:
            x = self._x
            u = self._layout.volumes[:, None] * a
            columns = np.concatenate([_moment_columns(x, u), _cross(x, _cross(x, u))], axis=1)
            product = packed_product(self._blocks, 1, columns)
            xu = product[:, 3:12].reshape(-1, 3, 3)  # X[m, p, q] = sum_j S2_mj x_jp U_jq
            out = (_cross(x, _cross(x, product[:, :3]))
                   - x * np.einsum("mpp->m", xu)[:, None]
                   - np.einsum("mpq,mq->mp", xu, x)
                   + 2.0 * np.einsum("mp,mpq->mq", x, xu)
                   + product[:, 12:]
                   - 2.0 * packed_product(self._blocks, 0, u))
            if self.directions is not None:
                # radiative_curl includes the self pairs: take their limit out
                k = self._wavenumber
                out += radiative_curl(k, self._table, u) - 1j * ((k**3 / (6.0 * np.pi)) * u)
        return out @ self._tau.T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=complex).reshape(self.count, 3)
        return (a + self._coupling(a)).reshape(-1)

    def scattered_at_centers(self, a: np.ndarray) -> np.ndarray:
        """Field of the moments Q_j = -|D_j| A_j at every centre, own term left out.

        sum_{j != m} grad g(x_m, x_j) x Q_j.  On the fft coupling: one convolution
        of the gradient kernel, its spectrum formed here and not stored, with Q.
        On the dense one, grad g = c_iso (x_m - x_j): the cross sum
        (kernels._cross_sum) of the stored S_iso with Q, one (M, 6) product,
        plus the plane-wave imaginary part when S_iso is stored real.
        """
        if self.coupling == "fft":
            grid = self._layout.grid
            diff, _, c_iso, _ = _grid_kernel_parts(grid, self._wavenumber)
            grad_hat = np.fft.fftn(np.moveaxis(c_iso[..., None] * diff, -1, 0), axes=(1, 2, 3))
            q_hat = _grid_spectrum(-self._layout.volumes[:, None] * a, grid)
            return _grid_values(np.cross(grad_hat, q_hat, axis=0), grid)
        q = -self._layout.volumes[:, None] * a
        field = _cross_sum(self._x, packed_product(self._blocks, 0, _cross_columns(self._x, q)))
        if self.directions is not None:
            field += radiative_field(self._wavenumber, self._table, q)
        return field

    def to_dense(self) -> np.ndarray:
        """Materialize the full (3M, 3M) matrix pairwise (small systems / oracles).

        The scalar parts k^2 g + c_iso and c_dir are evaluated afresh, not
        taken from the stored S_iso, so this checks the trace identity the
        dense matvec relies on.  Row p of tau times block (m, j) is
        tau_pq C0 + C2 (tau_p . d) d_q with C0 = (k^2 g + c_iso) |D_j|,
        C2 = c_dir |D_j| and d = x_m - x_j, written component by component into the output.  It
        needs 232 B per pair of bodies: the 144 B of the matrix, C0 and C2,
        the three coordinate differences and two complex work matrices.
        """
        m = self.count
        check_dense_bytes(232 * m * m, "the dense many-body matrix")
        k = self._wavenumber

        def parts(r):
            g, c_iso, c_dir = kernel_hessian_parts(k, r)
            return k * k * g + c_iso, c_dir

        centers = self._layout.centers
        c0, c2 = pair_matrix(centers, centers.mean(axis=0), parts, weights=self._layout.volumes)
        diff = [np.subtract.outer(centers[:, p], centers[:, p]) for p in range(3)]
        out = np.empty((m, 3, m, 3), dtype=complex)
        for p, tau in enumerate(self._tau):
            work = tau[0] * diff[0]
            work += tau[1] * diff[1]
            work += tau[2] * diff[2]
            work *= c2
            for q in range(3):
                block = out[:, p, :, q]
                np.multiply(work, diff[q], out=block)
                block += tau[q] * c0
        for i in range(m):
            out[i, :, i, :] += np.eye(3)
        return out.reshape(3 * m, 3 * m)


@dataclass(frozen=True)
class EffectiveFieldSolution:
    """Solved per-body vectors A_m, moments Q_m = -|D_m| A_m and the wave.

    operator is the record of the operator that produced the solution
    (ManyBodyOperator.record); None when the solution was not built by a
    solve.
    scattered_at_centers is the moments' field at every centre, own term
    left out (ManyBodyOperator.scattered_at_centers), formed by the solve.
    centers are the centres the solve ran on; the field functions refuse
    another layout.
    """

    a_values: np.ndarray
    q_values: np.ndarray
    report: SolveReport
    wave: IncidentWave
    operator: dict | None = None
    scattered_at_centers: np.ndarray | None = None
    centers: np.ndarray | None = None


def assemble_many_body(
    layout: ManyBodyLayout, wave: IncidentWave, gamma: GammaMatrix
) -> tuple[ManyBodyOperator, np.ndarray]:
    """Build the coupled system and right-hand side A0_m = tau (curl E0)(x_m)."""
    operator = ManyBodyOperator(layout, wave.wavenumber, gamma)
    rhs = wave.curl(layout.centers) @ gamma.tau.T
    return operator, rhs.reshape(-1)


def solve_effective_field(
    layout: ManyBodyLayout,
    wave: IncidentWave,
    gamma: GammaMatrix,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
) -> EffectiveFieldSolution:
    """Solve for all A_m by GMRES and attach the moments Q_m = -|D_m| A_m.

    Raises ConvergenceError if GMRES stalls, and ValueError for a bad knob
    (linalg.check_solver) before assembly.  The field at the centres is
    formed here, by the same operator, and carried by the solution.
    """
    check_solver(tol, restart, max_iter)
    operator, rhs = assemble_many_body(layout, wave, gamma)
    x, report = solve_operator(operator, rhs, tol=tol, restart=restart,
                               max_iter=max_iter, what="effective-field")
    a = x.reshape(layout.count, 3)
    return EffectiveFieldSolution(
        a_values=a,
        q_values=-layout.volumes[:, None] * a,
        report=report,
        wave=wave,
        operator=operator.record,
        scattered_at_centers=operator.scattered_at_centers(a),
        centers=layout.centers,
    )


def _check_solution(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution
) -> None:
    """Raise ValueError naming the first of the count, a recorded centre or a
    wave field in which layout or wave differs from what solution was solved on."""
    if layout.count != len(solution.q_values):
        raise ValueError(
            f"layout has {layout.count} centres but the solution "
            f"{len(solution.q_values)} moments"
        )
    if solution.centers is not None and not np.array_equal(solution.centers, layout.centers):
        moved = np.flatnonzero(np.any(solution.centers != layout.centers, axis=1))
        raise ValueError(
            f"the solution was solved on other centres: {len(moved)} of {layout.count} "
            f"differ, first centre {moved[0]} at {solution.centers[moved[0]].tolist()} "
            f"against {layout.centers[moved[0]].tolist()}"
        )
    for name in ("wavenumber", "amplitude", "direction", "frequency", "permeability"):
        given, solved = getattr(wave, name), getattr(solution.wave, name)
        if not np.array_equal(given, solved):
            shown = [", ".join(f"{v:.12g}" for v in np.ravel(value)) for value in (given, solved)]
            raise ValueError(
                f"wave has {name} {shown[0]} but the solution was solved at {shown[1]}"
            )


def _moment_fields(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution, x
) -> tuple[np.ndarray, np.ndarray]:
    """Scattered E and curl E of all the moments at x; refuses x at a center."""
    _check_solution(layout, wave, solution)
    try:
        return moment_fields(wave.wavenumber, layout.centers, solution.q_values, x)
    except CoincidentPointsError:
        raise ValueError("field evaluation at a particle center") from None


def field_e_many(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution, x
) -> np.ndarray:
    """Asymptotic total field E(x) = E0(x) + sum_m grad g(x, x_m) x Q_m.

    x is (3,) or (n, 3); the result has the same shape.  Raises ValueError
    when layout or wave is not the one the solution was solved on.
    """
    return wave.field(x) + _moment_fields(layout, wave, solution, x)[0]


def effective_field_at_centers(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution
) -> np.ndarray:
    """Field acting on each body: the total field minus the body's own term.

    The scattered part is the one the solve carries
    (EffectiveFieldSolution.scattered_at_centers).  Raises ValueError when
    layout or wave is not the one the solution was solved on (the count, a
    centre or a field of the wave differs), or when the solution carries
    no field.
    """
    _check_solution(layout, wave, solution)
    if solution.scattered_at_centers is None:
        raise ValueError("the solution carries no field at the centres: solve it with "
                         "solve_effective_field, or set scattered_at_centers from "
                         "ManyBodyOperator.scattered_at_centers")
    return wave.field(layout.centers) + solution.scattered_at_centers


def field_h_many(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution, x
) -> np.ndarray:
    """Magnetic field of the many-body solution, H = curl E / (i omega mu).

    Each moment contributes curl(grad g x Q) = k^2 g Q + H Q, H the kernel
    Hessian; x is (3,) or (n, 3).  Raises ValueError when layout or wave is
    not the one the solution was solved on.
    """
    curl_scattered = _moment_fields(layout, wave, solution, x)[1]
    return (wave.curl(x) + curl_scattered) / (1j * wave.frequency * wave.permeability)


def error_estimate_many(
    layout: ManyBodyLayout, solution: EffectiveFieldSolution, x
) -> float:
    """A-priori bound on the point-moment approximation error at x.

    (1 / 4 pi) (a k^2 / d + a k / d^2 + a / d^3) sum_m |Q_m| with a the body
    radius and d the distance from x to the nearest center.  Raises
    ValueError when layout is not the one the solution was solved on.
    """
    _check_solution(layout, solution.wave, solution)
    x = np.asarray(x, dtype=float)
    d = float(np.linalg.norm(layout.centers - x[None, :], axis=1).min())
    if d <= 0:
        raise ValueError("evaluation point coincides with a particle center")
    a = layout.radius
    k = solution.wave.wavenumber
    q_total = float(np.sum(np.linalg.norm(solution.q_values, axis=1)))
    bracket = a * k * k / d + a * k / (d * d) + a / (d * d * d)
    return bracket * q_total / (4.0 * np.pi)
