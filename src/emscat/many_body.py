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
  fields at the centres are the same convolution with the gradient kernel.
* dense -- any other layout stores the pairwise coefficients, O(M^2) in time
  and memory.  Since grad g(x_m, x_j) = c_mj (x_m - x_j), the fields at the
  centres are one (M, M) x (M, 6) product C @ [Q, x x Q].

``ManyBodyOperator.to_dense`` builds the blocks pairwise on both paths, so it
is an independent oracle for the FFT matvec.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    R_MIN_SCALE,
    gradient_coefficient,
    kernel_gradients,
    kernel_hessian_parts,
    pair_distances,
)
from .linalg import SolveReport, solve_operator
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

    box is ((xmin, ymin, zmin), (xmax, ymax, zmax)) in cm; every center must
    lie inside it and pairwise distances must respect the nominal spacing.
    grid is derived from the centers: the regular grid they form, or None.
    """

    centers: np.ndarray
    radius: float
    spacing: float
    volumes: np.ndarray
    box: tuple[tuple[float, float, float], tuple[float, float, float]]
    grid: LatticeGrid | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "volumes", np.asarray(self.volumes, dtype=float))
        if centers.shape[1] != 3:
            raise ValueError("centers must be (M, 3)")
        if self.volumes.shape != (centers.shape[0],):
            raise ValueError("one volume per center required")
        lo, hi = np.asarray(self.box[0]), np.asarray(self.box[1])
        if np.any(centers < lo - 1e-12) or np.any(centers > hi + 1e-12):
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z", "volume"])
            for c, v in zip(self.centers, self.volumes):
                writer.writerow([f"{val:.16g}" for val in (*c, v)])


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
    # imported here: scipy.spatial adds ~0.16 s to every import of emscat
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(centers).query(centers, k=2)
    return float(dist[:, 1].min())


def lattice_layout(
    count: int,
    spacing: float,
    radius: float,
    box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    volume_coeff: float = SPHERE_VOLUME_COEFF,
) -> ManyBodyLayout:
    """Regular n x n x n lattice anchored at the low corner of the box.

    count must be a perfect cube; centers are box_min + (i, j, l) * spacing
    with i (the x index) varying fastest.  Per-body volumes default to the
    spherical volume_coeff * radius^3.
    """
    n = round(count ** (1.0 / 3.0))
    if n**3 != count:
        raise ValueError(
            f"count must be a perfect cube for lattice placement, got {count}; "
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
        volumes=np.full(count, volume_coeff * radius**3),
        box=(tuple(lo), tuple(hi)),
    )


def layout_from_centers(
    centers,
    spacing: float,
    radius: float,
    box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    volumes=None,
    volume_coeff: float = SPHERE_VOLUME_COEFF,
) -> ManyBodyLayout:
    """Layout from an explicit center list (general counts allowed)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if volumes is None:
        volumes = np.full(centers.shape[0], volume_coeff * radius**3)
    return ManyBodyLayout(
        centers=centers, radius=radius, spacing=spacing, volumes=np.asarray(volumes),
        box=(tuple(box[0]), tuple(box[1])),
    )


def layout_from_csv(path, spacing: float, radius: float, box=((0, 0, 0), (1, 1, 1))):
    """Read centers (x,y,z[,volume]) back from to_csv output."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                (float(row["x"]), float(row["y"]), float(row["z"]),
                 float(row.get("volume", SPHERE_VOLUME_COEFF * radius**3)))
            )
    data = np.array(rows)
    return layout_from_centers(
        data[:, :3], spacing=spacing, radius=radius, box=box, volumes=data[:, 3]
    )


def _pair_coefficients(layout: ManyBodyLayout, wavenumber: float):
    """Pairwise coupling in split form: block (m, j) = c0 I + c2 diff diff^T.

    Returns (c0, c2, diff) with the volumes |D_j| folded in and the self
    terms zeroed; (M, M) and (M, M, 3) arrays.
    """
    centers = layout.centers
    diff = centers[:, None, :] - centers[None, :, :]
    r = pair_distances(centers, centers.mean(axis=0))
    k = wavenumber
    g, c_iso, c_dir = kernel_hessian_parts(k, diff, r)
    # Coupling block (m, j) = [k^2 g I + H] |D_j|; split into the isotropic
    # scalar and the rank-one diff (x) diff part.
    c0 = (k * k * g + c_iso) * layout.volumes[None, :]
    c2 = c_dir * layout.volumes[None, :]
    np.fill_diagonal(c0, 0.0)
    np.fill_diagonal(c2, 0.0)
    return c0, c2, diff


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
    parts = kernel_hessian_parts(wavenumber, diff, r)
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


class ManyBodyOperator:
    """Matrix-free application of the 3M x 3M effective-field system.

    coupling is "fft" on a grid layout (the FFT of the six unique Hessian
    kernel components is stored, O(M) memory) and "dense" otherwise (the
    pairwise coefficients are stored, O(M^2) memory).
    """

    def __init__(self, layout: ManyBodyLayout, wavenumber: float, gamma: GammaMatrix):
        self._layout = layout
        self._wavenumber = wavenumber
        self._tau = gamma.tau
        self.count = layout.count
        self.shape = (3 * self.count, 3 * self.count)
        self.coupling = "dense" if layout.grid is None else "fft"
        if layout.grid is None:
            self._c0, self._c2, self._diff = _pair_coefficients(layout, wavenumber)
            return
        k = wavenumber
        diff, g, c_iso, c_dir = _grid_kernel_parts(layout.grid, k)
        components = np.stack([
            c_dir * diff[..., p] * diff[..., q] + (k * k * g + c_iso if p == q else 0.0)
            for p, q in _SYM_PAIRS
        ])
        self._kernel_hat = np.fft.fftn(components, axes=(1, 2, 3))

    @property
    def nbytes(self) -> int:
        """Bytes held by the operator's stored arrays."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))

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
            s = np.einsum("mjq,jq->mj", self._diff, a)
            out = self._c0 @ a + np.einsum("mj,mjp->mp", self._c2 * s, self._diff)
        return out @ self._tau.T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=complex).reshape(self.count, 3)
        return (a + self._coupling(a)).reshape(-1)

    def to_dense(self) -> np.ndarray:
        """Materialize the full (3M, 3M) matrix pairwise (small systems / oracles)."""
        if self.coupling == "dense":
            c0, c2, diff = self._c0, self._c2, self._diff
        else:
            c0, c2, diff = _pair_coefficients(self._layout, self._wavenumber)
        m = self.count
        eye = np.eye(3)
        blocks = (
            c0[:, :, None, None] * eye[None, None, :, :]
            + c2[:, :, None, None] * diff[:, :, :, None] * diff[:, :, None, :]
        )  # (m, j, p, q)
        out = np.einsum("pr,mjrq->mpjq", self._tau, blocks)
        for i in range(m):
            out[i, :, i, :] += eye
        return out.reshape(3 * m, 3 * m)


@dataclass(frozen=True)
class EffectiveFieldSolution:
    """Solved per-body vectors A_m, moments Q_m = -|D_m| A_m and the wave.

    coupling ("fft" or "dense") and operator_bytes record the operator that
    produced the solution; None when the solution was not built by a solve.
    """

    a_values: np.ndarray
    q_values: np.ndarray
    report: SolveReport
    wave: IncidentWave
    coupling: str | None = None
    operator_bytes: int | None = None

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        """Header and one row per body: A_m and Q_m as re/im column pairs."""
        header = ["index"]
        for name in ("Ax", "Ay", "Az", "Qx", "Qy", "Qz"):
            header += [f"{name}_re", f"{name}_im"]
        rows = []
        for i, (a, q) in enumerate(zip(self.a_values, self.q_values)):
            row = [str(i)]
            for z in (*a, *q):
                row += [f"{z.real:.16g}", f"{z.imag:.16g}"]
            rows.append(row)
        return header, rows

    def to_csv(self, path) -> None:
        header, rows = self.csv_table()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


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
    method: str = "gmres",
) -> EffectiveFieldSolution:
    """Solve for all A_m and attach the moments Q_m = -|D_m| A_m.

    method "gmres" (default) or "direct" (LU on to_dense()), as in
    linalg.solve_operator; raises ConvergenceError if GMRES stalls.
    """
    operator, rhs = assemble_many_body(layout, wave, gamma)
    x, report = solve_operator(operator, rhs, method=method, tol=tol, restart=restart,
                               max_iter=max_iter, what="effective-field")
    a = x.reshape(layout.count, 3)
    return EffectiveFieldSolution(
        a_values=a,
        q_values=-layout.volumes[:, None] * a,
        report=report,
        wave=wave,
        coupling=operator.coupling,
        operator_bytes=operator.nbytes,
    )


def _separations(centers: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x - x_m for every center and its length; refuses x at a center."""
    diff = x[None, :] - centers
    r = np.linalg.norm(diff, axis=-1)
    if float(r.min()) < R_MIN_SCALE * max(1.0, float(np.abs(x).max())):
        raise ValueError("field evaluation at a particle center")
    return diff, r


def field_e_many(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution, x
) -> np.ndarray:
    """Asymptotic total field E(x) = E0(x) + sum_m grad g(x, x_m) x Q_m."""
    x = np.asarray(x, dtype=float)
    diff, r = _separations(layout.centers, x)
    grad = kernel_gradients(wave.wavenumber, diff, r)
    return wave.field(x) + np.sum(np.cross(grad, solution.q_values), axis=0)


def effective_field_at_centers(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution
) -> np.ndarray:
    """Field acting on each body: the total field minus the body's own term.

    On a grid layout the scattered part is one FFT convolution of the
    gradient kernel with the moments.  Otherwise grad g(x_m, x_j) =
    c_mj (x_m - x_j) makes it x_m x (C Q)_m - (C (x x Q))_m: one product of
    the (M, M) matrix C with the (M, 6) block [Q, x x Q], in coordinates
    centred on the layout so that the two terms do not cancel.
    """
    if layout.grid is not None:
        diff, _, c_iso, _ = _grid_kernel_parts(layout.grid, wave.wavenumber)
        grad_hat = np.fft.fftn(np.moveaxis(c_iso[..., None] * diff, -1, 0), axes=(1, 2, 3))
        q_hat = _grid_spectrum(solution.q_values, layout.grid)
        scattered = _grid_values(np.cross(grad_hat, q_hat, axis=0), layout.grid)
        return wave.field(layout.centers) + scattered
    center = layout.centers.mean(axis=0)
    x = layout.centers - center
    coeff = gradient_coefficient(wave.wavenumber, pair_distances(layout.centers, center))
    np.fill_diagonal(coeff, 0.0)
    q = solution.q_values
    product = coeff @ np.concatenate([q, np.cross(x, q)], axis=1)
    return wave.field(layout.centers) + np.cross(x, product[:, :3]) - product[:, 3:]


def field_h_many(
    layout: ManyBodyLayout, wave: IncidentWave, solution: EffectiveFieldSolution, x
) -> np.ndarray:
    """Magnetic field of the many-body solution, H = curl E / (i omega mu).

    Each moment contributes curl(grad g x Q) = k^2 g Q + H Q with the
    Hessian H Q = c_iso Q + c_dir d (d . Q), d = x - x_m.
    """
    x = np.asarray(x, dtype=float)
    k = wave.wavenumber
    diff, r = _separations(layout.centers, x)
    g, c_iso, c_dir = kernel_hessian_parts(k, diff, r)
    q = solution.q_values
    d_dot_q = np.einsum("mp,mp->m", diff, q)
    curl_scattered = ((k * k * g + c_iso)[:, None] * q
                      + (c_dir * d_dot_q)[:, None] * diff).sum(axis=0)
    return (wave.curl(x) + curl_scattered) / (
        1j * wave.frequency * wave.permeability
    )


def error_estimate_many(
    layout: ManyBodyLayout, solution: EffectiveFieldSolution, x
) -> float:
    """A-priori bound on the point-moment approximation error at x.

    (1 / 4 pi) (a k^2 / d + a k / d^2 + a / d^3) sum_m |Q_m| with a the body
    radius and d the distance from x to the nearest center.
    """
    x = np.asarray(x, dtype=float)
    d = float(np.linalg.norm(layout.centers - x[None, :], axis=1).min())
    if d <= 0:
        raise ValueError("evaluation point coincides with a particle center")
    a = layout.radius
    k = solution.wave.wavenumber
    q_total = float(np.sum(np.linalg.norm(solution.q_values, axis=1)))
    bracket = a * k * k / d + a * k / (d * d) + a / (d * d * d)
    return bracket * q_total / (4.0 * np.pi)
