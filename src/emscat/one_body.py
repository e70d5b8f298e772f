"""Boundary-integral solver for one perfectly conducting body.

The scattered field is represented as the curl of a single-layer potential
with tangential surface density J; enforcing the perfect-conductor boundary
condition at the collocation points gives the 3P x 3P linear system

    J(i) + s sum_{j != i} [grad g(i,j) (N(i).J(j)) - J(j) (grad g(i,j).N(i))] w_j
        = -s N(i) x E0(i)

whose off-diagonal block (i, j) is s [grad_p g N_q(i) - delta_pq grad g.N(i)] w_j
and whose diagonal blocks are the identity (the weakly singular self-cell is
dropped).  The scale s selects between two self-consistent conventions:

* s = 1 (default): the moment Q = sum J(i) w_i of the solved density obeys
  (I + Gamma) Q = -|D| curl E0 with the source-frame coupling matrix Gamma
  (diag(-1/3, -1/3, 1/6) for a sphere), i.e. the convention against which
  the closed-form asymptotic moment is exact.  All moment-level reference
  values assume it.
* s = 2: the classical half-jump equation (I + 2A) J = -2 N x E0.  Its
  density carries the physically correct electric-dipole response, and the
  reference near-field tables (exact-versus-asymptotic E errors) assume it.

The two conventions cannot be reconciled: for tangential J on a sphere the
coupling integral contracts with the tangential eigenvalue -1/3, so the
s = 2 moment converges to (3/2) |D| |curl E0| while the asymptotic formula
(and the s = 1 moment) gives (6/7) |D| |curl E0|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import CollocationMesh
from .kernels import (
    curl_dipole_term,
    gradient_coefficient,
    green,
    kernel_gradients,
    pair_distances,
)
from .linalg import SolveReport, solve_operator
from .waves import IncidentWave

__all__ = [
    "GammaMatrix",
    "SurfaceCurrent",
    "OneBodyOperator",
    "assemble_one_body",
    "solve_current",
    "moment_q_exact",
    "moment_q_asymptotic",
    "gamma_numeric",
    "gamma_sphere_analytic",
    "field_e_exact",
    "field_e_asymptotic",
    "field_h",
]

#: The small-body expansion degrades once k * radius approaches 1.
KA_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class GammaMatrix:
    """Shape coupling matrix and its inverse shift tau = (I + gamma)^-1."""

    gamma: np.ndarray
    tau: np.ndarray

    @classmethod
    def from_gamma(cls, gamma: np.ndarray) -> "GammaMatrix":
        gamma = np.asarray(gamma, dtype=complex)
        shifted = np.eye(3) + gamma
        if abs(np.linalg.det(shifted)) < 1e-12:
            raise np.linalg.LinAlgError("I + gamma is singular")
        return cls(gamma=gamma, tau=np.linalg.inv(shifted))


@dataclass(frozen=True)
class SurfaceCurrent:
    """Solved surface density, one complex 3-vector per collocation point."""

    values: np.ndarray
    report: SolveReport


def _moment_columns(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (P, 12) block [v, x (x) v]: column 3 + 3p + q holds x_p v_q.

    A pair sum sum_j c_ij (x_i - x_j)_p v_jq is then x_ip (c @ v)_iq minus
    column 3 + 3p + q of c @ [v, x (x) v]: one GEMM for all nine (p, q).
    """
    outer = (x[:, :, None] * v[:, None, :]).reshape(len(v), 9)
    return np.concatenate([v, outer], axis=1)


class OneBodyOperator:
    """Matrix-free application of the discretized boundary operator I + s A.

    A is the collocated coupling sum over grad g(i, j) terms; the scale s
    multiplies it (see assemble_one_body).  Every pair term is a scalar times
    x_i - x_j: grad g(i, j) w_j = C_ij (x_i - x_j) with

        C_ij = g(r_ij) (ik - 1/r_ij) / r_ij * w_j,   C_ii = 0,

    so only the (P, P) complex matrix C is stored (16 B per point pair).
    Expanding x_i - x_j turns the matvec into one product C @ [J, x (x) J]
    with 12 columns plus O(P) contractions against N_i and x_i . N_i.  The
    coordinates x are taken relative to mesh.center: with raw coordinates the
    expansion cancels catastrophically for a small body far from the origin.
    Unknowns are interleaved (X1, Y1, Z1, X2, ...).
    """

    def __init__(self, mesh: CollocationMesh, wavenumber: float, scale: float = 1.0):
        x = mesh.points - mesh.center
        coeff = gradient_coefficient(wavenumber, pair_distances(mesh.points, mesh.center))
        coeff *= mesh.weights[None, :]
        np.fill_diagonal(coeff, 0.0)

        self._coeff = coeff
        self._x = x
        self._normals = mesh.normals
        self._x_dot_n = np.einsum("ip,ip->i", x, mesh.normals)
        self._scale = float(scale)
        self.n_points = mesh.n_points
        self.shape = (3 * self.n_points, 3 * self.n_points)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        p = self.n_points
        j = np.asarray(x, dtype=complex).reshape(p, 3)
        product = self._coeff @ _moment_columns(self._x, j)
        cj = product[:, :3]  # sum_j C_ij J(j, q)
        cxj = product[:, 3:].reshape(p, 3, 3)  # sum_j C_ij x(j, p) J(j, q)
        # term1(i) = sum_j C_ij (x_i - x_j) (N_i . J_j)
        n_dot_cj = np.einsum("iq,iq->i", self._normals, cj)
        term1 = self._x * n_dot_cj[:, None] - np.einsum("ipq,iq->ip", cxj, self._normals)
        # term2(i) = sum_j C_ij ((x_i - x_j) . N_i) J_j
        term2 = self._x_dot_n[:, None] * cj - np.einsum("ip,ipq->iq", self._normals, cxj)
        return (j + self._scale * (term1 - term2)).reshape(-1)

    def to_dense(self) -> np.ndarray:
        """Materialize the full (3P, 3P) matrix (small systems / oracles).

        Block (i, j) is s C_ij [(x_i - x_j) N_i^T - I (x_i - x_j) . N_i],
        plus the identity on the diagonal blocks.
        """
        p = self.n_points
        a = np.zeros((p, 3, p, 3), dtype=complex)
        normal_dot = np.zeros((p, p), dtype=complex)
        for comp in range(3):
            grad = self._coeff * np.subtract.outer(self._x[:, comp], self._x[:, comp])
            a[:, comp, :, :] = grad[:, :, None] * self._normals[:, None, :]
            normal_dot += grad * self._normals[:, comp, None]
        for comp in range(3):
            a[:, comp, :, comp] -= normal_dot
        a *= self._scale
        for comp in range(3):
            a[np.arange(p), comp, np.arange(p), comp] += 1.0
        return a.reshape(3 * p, 3 * p)


#: Scale applied to both the coupling operator and the right-hand side.
#: 1.0 reproduces the bundled reference tables; 2.0 gives the classical
#: half-jump boundary equation (I + 2A) J = -2 N x E0.
DEFAULT_BIE_SCALE = 1.0


def assemble_one_body(
    mesh: CollocationMesh, wave: IncidentWave, scale: float = DEFAULT_BIE_SCALE
) -> tuple[OneBodyOperator, np.ndarray]:
    """Build the boundary operator (I + s A) and right-hand side -s N x E0.

    Emits a warning when k * body radius exceeds the small-body threshold;
    the discretization stays valid but the asymptotic comparisons degrade.
    """
    ka = wave.wavenumber * mesh.radius
    if ka >= KA_WARN_THRESHOLD:
        warnings.warn(
            f"k * radius = {ka:.3g}; outside the small-body regime", stacklevel=2
        )
    operator = OneBodyOperator(mesh, wave.wavenumber, scale=scale)
    e0 = wave.field(mesh.points)
    rhs = -scale * np.cross(mesh.normals, e0)
    return operator, rhs.reshape(-1)


def solve_current(
    mesh: CollocationMesh,
    wave: IncidentWave,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
    method: str = "gmres",
    scale: float = DEFAULT_BIE_SCALE,
) -> SurfaceCurrent:
    """Solve the boundary system for the surface density J.

    method "gmres" (default) never materializes the matrix; "direct" uses
    the LU oracle.  Raises ConvergenceError if GMRES stalls.
    """
    operator, rhs = assemble_one_body(mesh, wave, scale=scale)
    x, report = solve_operator(operator, rhs, method=method, tol=tol, restart=restart,
                               max_iter=max_iter, what="boundary")
    return SurfaceCurrent(values=x.reshape(mesh.n_points, 3), report=report)


def moment_q_exact(current: SurfaceCurrent, mesh: CollocationMesh) -> np.ndarray:
    """Quadrature of the surface density: Q = sum_i J(i) w_i."""
    return mesh.weights @ current.values


def gamma_sphere_analytic() -> GammaMatrix:
    """Closed-form coupling matrix of a sphere: diag(-1/3, -1/3, 1/6).

    The frame puts the third axis along the source-point normal; the
    corresponding tau is diag(3/2, 3/2, 6/7).
    """
    return GammaMatrix.from_gamma(np.diag([-1.0 / 3.0, -1.0 / 3.0, 1.0 / 6.0]))


def _local_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal bases (u, v, n) per point, n the outward normal.

    Returns (P, 3, 3) with basis vectors in columns; the tangent pair is a
    deterministic function of n only.
    """
    n = normals
    ref = np.zeros_like(n)
    use_y = np.abs(n[:, 0]) > 0.9
    ref[~use_y, 0] = 1.0
    ref[use_y, 1] = 1.0
    u = ref - n * np.einsum("ij,ij->i", ref, n)[:, None]
    u /= np.linalg.norm(u, axis=1)[:, None]
    v = np.cross(n, u)
    return np.stack([u, v, n], axis=-1)


def gamma_numeric(mesh: CollocationMesh, frame: str = "local") -> GammaMatrix:
    """Coupling matrix from static-kernel quadrature over the mesh.

    For each source point t the matrix G_pq(t) = sum_{s != t}
    d g0 / d s_p (s, t) N_q(s) w_s is formed; the returned gamma is the
    area-weighted average over t, either rotated into the local frame whose
    third axis is the source normal (frame="local", the frame in which the
    sphere value diag(-1/3, -1/3, 1/6) is stated) or in laboratory axes
    (frame="lab").
    """
    if frame not in ("local", "lab"):
        raise ValueError(f"unknown frame {frame!r}")
    p = mesh.n_points
    x = mesh.points - mesh.center
    # d g0 / d s = c_st (x_s - x_t) with c_st = -1 / (4 pi r^3); c is symmetric.
    c = pair_distances(mesh.points, mesh.center)
    c **= 3
    c *= -4.0 * np.pi
    np.reciprocal(c, out=c)
    np.fill_diagonal(c, 0.0)

    # per_source[t, p, q] = sum_s c_ts (x_sp - x_tp) N_sq w_s
    product = c @ _moment_columns(x, mesh.normals * mesh.weights[:, None])
    per_source = product[:, 3:].reshape(p, 3, 3) - x[:, :, None] * product[:, None, :3]

    if frame == "local":
        basis = _local_frames(mesh.normals)  # (t, 3, 3), columns u, v, n
        per_source = np.einsum("tap,tab,tbq->tpq", basis, per_source, basis)

    gamma = np.einsum("t,tpq->pq", mesh.weights, per_source) / mesh.area
    return GammaMatrix.from_gamma(gamma)


def moment_q_asymptotic(
    mesh: CollocationMesh, wave: IncidentWave, gamma: GammaMatrix
) -> np.ndarray:
    """Small-body moment Q = -|D| tau (curl E0)(center)."""
    return -mesh.volume * (gamma.tau @ wave.curl(mesh.center))


def _require_outside(mesh: CollocationMesh, x: np.ndarray) -> None:
    dist = float(np.linalg.norm(x - mesh.center))
    if dist <= mesh.radius:
        raise ValueError(
            f"evaluation point at distance {dist:.3e} lies inside the body "
            f"(radius {mesh.radius:.3e})"
        )


def field_e_exact(
    mesh: CollocationMesh, wave: IncidentWave, current: SurfaceCurrent, x
) -> np.ndarray:
    """Total electric field from the solved density.

    E(x) = E0(x) + sum_j grad g(x, t_j) x J(j) w_j; valid for x strictly
    outside the body.
    """
    x = np.asarray(x, dtype=float)
    _require_outside(mesh, x)
    diff = x[None, :] - mesh.points
    r = np.linalg.norm(diff, axis=-1)
    grad = kernel_gradients(wave.wavenumber, diff, r)
    scattered = np.sum(
        np.cross(grad, current.values) * mesh.weights[:, None], axis=0
    )
    return wave.field(x) + scattered


def field_e_asymptotic(
    wave: IncidentWave, q, center, x, radius: float | None = None
) -> np.ndarray:
    """Point-moment approximation E(x) = E0(x) + grad g(x, center) x Q.

    Valid far from the body; when the body radius is supplied, points closer
    than a few radii trigger a warning.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    if radius is not None and np.linalg.norm(x - center) < 3.0 * radius:
        warnings.warn(
            "evaluation point is close to the body; the point-moment "
            "approximation degrades there",
            stacklevel=2,
        )
    ker = green(wave.wavenumber, x, center)
    return wave.field(x) + np.cross(ker.gradient, np.asarray(q, dtype=complex))


def field_h(wave: IncidentWave, q, center, x) -> np.ndarray:
    """Magnetic field of the point-moment solution, H = curl E / (i omega mu)."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    curl_scattered = curl_dipole_term(wave.wavenumber, x, center, q)
    return (wave.curl(x) + curl_scattered) / (1j * wave.frequency * wave.permeability)
