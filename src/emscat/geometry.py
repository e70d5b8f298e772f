"""Collocation meshes: surface points, outward normals, quadrature weights.

A mesh is the geometric half of the boundary solver: one collocation point
per surface patch, the patch area as quadrature weight, plus the body volume
and a reference center.  Builders are provided for spheres, ellipsoids,
axis-aligned cubes and arbitrary star-shaped parametric surfaces.

The sphere/ellipsoid partition refines the azimuthal resolution toward the
poles: with m_phi polar bands at phi_j = j pi / (m_phi + 1), band j carries

    m_theta(phi_j) = floor(m_phi + |phi_j - pi/2| * 6 * m_phi)

points at theta_i = i 2 pi / m_theta, plus one point at each pole.  The
floor in m_theta reproduces the reference point counts exactly
(m_phi = 12, 14, 16, 18 -> P = 766, 1052, 1386, 1762).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import check_count, check_positive

__all__ = [
    "CollocationMesh",
    "ParametricSurface",
    "mesh_sphere",
    "mesh_ellipsoid",
    "mesh_cube",
    "mesh_parametric",
    "sphere_band_counts",
    "sphere_point_count",
    "sphere_resolution_for",
]


@dataclass(frozen=True)
class CollocationMesh:
    """Immutable collocation mesh.

    points : (P, 3) float, cm
    normals : (P, 3) float, outward unit normals
    weights : (P,) float, patch areas in cm^2
    volume : float, body volume in cm^3
    center : (3,) float, reference point of the body (cm)
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    volume: float
    center: np.ndarray

    def __post_init__(self):
        """Raise ValueError, naming the field, on any broken mesh invariant."""
        for name in ("points", "normals", "weights", "center"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        p = len(self.points) if self.points.ndim else 0
        shapes = {"points": (p, 3), "normals": (p, 3), "weights": (p,), "center": (3,)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"mesh {name} must have shape {shape}, "
                                 f"got {getattr(self, name).shape}")
        if p == 0:
            raise ValueError("mesh points must hold at least one point, got none")
        for name in (*shapes, "volume"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"mesh {name} must be finite")
        if np.any(np.abs(np.linalg.norm(self.normals, axis=1) - 1.0) > 1e-12):
            raise ValueError("mesh normals must be unit vectors")
        if np.any(self.weights <= 0):
            raise ValueError("mesh weights must be positive")
        if not self.volume > 0:
            raise ValueError(f"mesh volume must be positive, got {self.volume:.6g}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def area(self) -> float:
        return float(self.weights.sum())

    @property
    def radius(self) -> float:
        """Circumscribed radius: max distance of a collocation point from center."""
        return float(np.max(np.linalg.norm(self.points - self.center, axis=1)))


# ---------------------------------------------------------------------------
# Sphere / ellipsoid band partition
# ---------------------------------------------------------------------------

def sphere_band_counts(m_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles phi_j and per-band azimuthal counts m_theta(phi_j)."""
    check_count("m_phi", m_phi, 2)
    j = np.arange(1, m_phi + 1)
    phi = j * np.pi / (m_phi + 1)
    m_theta = np.floor(m_phi + np.abs(phi - np.pi / 2) * 6 * m_phi).astype(int)
    return phi, m_theta


def sphere_point_count(m_phi: int) -> int:
    """Total number of collocation points (band points plus 2 poles)."""
    _, m_theta = sphere_band_counts(m_phi)
    return int(m_theta.sum()) + 2


def sphere_resolution_for(target_points: int, max_m_phi: int = 200) -> int:
    """Smallest m_phi whose point count is closest to target_points.

    The band rule makes the attainable counts a sparse set; the reference
    resolutions are hit exactly (766 -> 12, 1052 -> 14, 1386 -> 16,
    1762 -> 18).
    """
    best_m, best_gap = 2, abs(sphere_point_count(2) - target_points)
    for m in range(3, max_m_phi + 1):
        gap = abs(sphere_point_count(m) - target_points)
        if gap < best_gap:
            best_m, best_gap = m, gap
        if gap == 0:
            break
    return best_m


def _band_grid(m_phi: int):
    """theta, phi and d_theta of every band point, band by band, and d_phi."""
    phi, m_theta = sphere_band_counts(m_phi)
    d_theta = np.repeat(2.0 * np.pi / m_theta, m_theta)
    # azimuthal index i = 1 .. m_theta within each band
    i = np.arange(1, m_theta.sum() + 1) - np.repeat(np.cumsum(m_theta) - m_theta, m_theta)
    return i * d_theta, np.repeat(phi, m_theta), d_theta, np.pi / (m_phi + 1)


def _check_center(center) -> np.ndarray:
    """center as a float (3,) array; ValueError naming it unless 3 finite numbers."""
    try:
        array = np.asarray(center)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.shape != (3,) or not np.isfinite(array).all():
        raise ValueError(f"center must be 3 finite numbers, got {center!r}")
    return array.astype(float)


#: Outward normals of the north and south pole points.
_POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def mesh_sphere(radius: float, m_phi: int, center=(0.0, 0.0, 0.0)) -> CollocationMesh:
    """Collocation mesh of a sphere.

    Band weights are the product-rule surface elements radius^2 sin(phi)
    d_theta d_phi; the two pole points absorb the residual so the weights
    sum to the exact area 4 pi radius^2.
    """
    check_positive("radius", radius)
    center = _check_center(center)
    theta, phi, d_theta, d_phi = _band_grid(m_phi)
    sp = np.sin(phi)
    normals = np.vstack([
        np.stack([np.cos(theta) * sp, np.sin(theta) * sp, np.cos(phi)], axis=1), _POLES
    ])
    wts = radius * radius * sp * d_theta * d_phi
    residual = 4.0 * np.pi * radius * radius - float(np.sum(wts))
    if residual <= 0:
        # Band weights already tile the full area; give the poles a patch of
        # the same scale as their neighbors instead of a negative cap.
        residual = 2.0 * wts.min()
    return CollocationMesh(
        points=center + radius * normals,
        normals=normals,
        weights=np.append(wts, [residual / 2.0] * 2),
        volume=4.0 / 3.0 * np.pi * radius**3,
        center=center,
    )


def mesh_ellipsoid(
    a: float, b: float, c: float, m_phi: int, center=(0.0, 0.0, 0.0)
) -> CollocationMesh:
    """Collocation mesh of an axis-aligned ellipsoid with semi-axes a, b, c.

    Points follow (a cos t sin p, b sin t sin p, c cos p) on the same band
    partition as the sphere; normals are the normalized surface gradient
    (cos t sin p / a, sin t sin p / b, cos p / c); weights are the parametric
    surface element |f_theta x f_phi| d_theta d_phi.
    """
    for name, value in zip("abc", (a, b, c)):
        check_positive(f"semi-axes {name}", value)
    center = _check_center(center)
    theta, phi, d_theta, d_phi = _band_grid(m_phi)
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    grad = np.stack([ct * sp / a, st * sp / b, cp / c], axis=1)
    f_theta = np.stack([-a * st * sp, b * ct * sp, np.zeros_like(sp)], axis=1)
    f_phi = np.stack([a * ct * cp, b * st * cp, -c * sp], axis=1)
    wts = np.linalg.norm(np.cross(f_theta, f_phi), axis=1) * d_theta * d_phi

    # Pole caps via a one-point rule on the residual band phi in [0, d_phi/2].
    cap_phi = d_phi / 4.0
    cap_element = np.linalg.norm(
        np.cross(
            np.array([0.0, b * np.sin(cap_phi), 0.0]),
            np.array([a * np.cos(cap_phi), 0.0, -c * np.sin(cap_phi)]),
        )
    )
    cap_weight = cap_element * 2.0 * np.pi * (d_phi / 2.0)
    points = np.vstack([np.stack([a * ct * sp, b * st * sp, c * cp], axis=1), c * _POLES])
    return CollocationMesh(
        points=center + points,
        normals=np.vstack([grad / np.linalg.norm(grad, axis=1, keepdims=True), _POLES]),
        weights=np.append(wts, [cap_weight] * 2),
        volume=4.0 / 3.0 * np.pi * a * b * c,
        center=center,
    )


def mesh_cube(a_half: float, n_per_face: int, center=(0.0, 0.0, 0.0)) -> CollocationMesh:
    """Collocation mesh of a cube of side 2 a_half: n^2 cells per face.

    Points sit at face-cell centers, normals are the axis unit vectors of
    the face, every weight is the exact cell area (2 a_half / n)^2.
    """
    check_positive("a_half", a_half)
    check_count("n_per_face", n_per_face, 2)
    center = _check_center(center)
    n = n_per_face
    h = 2.0 * a_half / n
    grid = -a_half + h * (np.arange(n) + 0.5)
    # in-face coordinates (u, v) of the cells, v fastest; a face at axis p
    # inserts its constant coordinate at position p
    uv = np.stack([g.ravel() for g in np.meshgrid(grid, grid, indexing="ij")], axis=1)
    faces = [(axis, sign) for axis in range(3) for sign in (1.0, -1.0)]
    points = np.vstack([np.insert(uv, axis, sign * a_half, axis=1) for axis, sign in faces])
    normals = [np.insert([0.0, 0.0], axis, sign) for axis, sign in faces]
    return CollocationMesh(
        points=center + points,
        normals=np.repeat(normals, n * n, axis=0),
        weights=np.full(6 * n * n, h * h),
        volume=(2.0 * a_half) ** 3,
        center=center,
    )


# ---------------------------------------------------------------------------
# General parametric surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParametricSurface:
    """Closed star-shaped surface given by a map f(u, v) -> point.

    func maps arrays u, v of one shape to three arrays x, y, z of that shape
    (wrap a scalar-only function in np.vectorize); the (u, v) rectangle is
    sampled at n_u x n_v cell centers, each count an integer of at least 2.
    """

    func: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]]
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    n_u: int
    n_v: int

    def __post_init__(self):
        for name in ("n_u", "n_v"):
            check_count(name, getattr(self, name), 2)


def mesh_parametric(surface: ParametricSurface) -> CollocationMesh:
    """Mesh a parametric surface: FD tangents, outward-oriented normals.

    func is called five times, each on all cell centers (u index slowest) or
    their +-hu, +-hv shifts.  Weights are |f_u x f_v| du dv; the volume uses
    the divergence theorem, V = (1/3) sum (p - centroid) . N * w.  Raises
    ValueError naming the first cell where the tangent cross product vanishes.
    """
    u0, u1 = surface.u_range
    v0, v1 = surface.v_range
    du = (u1 - u0) / surface.n_u
    dv = (v1 - v0) / surface.n_v
    hu, hv = du * 1e-4, dv * 1e-4
    u, v = np.meshgrid(u0 + (np.arange(surface.n_u) + 0.5) * du,
                       v0 + (np.arange(surface.n_v) + 0.5) * dv, indexing="ij")
    f = lambda u, v: np.stack(surface.func(u, v), axis=-1, dtype=float).reshape(-1, 3)

    points = f(u, v)
    t_u = (f(u + hu, v) - f(u - hu, v)) / (2 * hu)
    t_v = (f(u, v + hv) - f(u, v - hv)) / (2 * hv)
    cross = np.cross(t_u, t_v)
    jac = np.linalg.norm(cross, axis=1)
    scale = np.linalg.norm(t_u, axis=1) * np.linalg.norm(t_v, axis=1)
    bad = np.flatnonzero(jac <= 1e-30 * np.maximum(1.0, scale))
    if bad.size:
        i = bad[0]
        raise ValueError(f"degenerate parametrization at (u, v)=({u.flat[i]}, {v.flat[i]})")
    normals = cross / jac[:, None]
    weights = jac * du * dv

    centroid = points.mean(axis=0)
    outward = np.einsum("ij,ij->i", points - centroid, normals)
    normals[outward < 0] *= -1.0

    volume = float(np.einsum("ij,ij,i->", points - centroid, normals, weights)) / 3.0
    return CollocationMesh(
        points=points, normals=normals, weights=weights, volume=volume, center=centroid
    )
