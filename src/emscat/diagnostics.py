"""Validation quantities for solved one-body problems.

Three checks qualify a boundary solve:

* tangentiality of the solved density: max_i |J(i).N(i)| / max_i |J(i)|;
* the moment residual |(I + gamma) Q - R| / |R| with R = -|D| (curl E0)(center);
* the relative gap between the quadrature moment and the closed-form
  asymptotic moment, and between the exact and asymptotic far fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CollocationMesh
from .one_body import (
    GammaMatrix,
    SurfaceCurrent,
    field_e_asymptotic,
    field_e_exact,
    gamma_numeric,
    gamma_sphere_analytic,
    moment_q_asymptotic,
    moment_q_exact,
)
from .waves import IncidentWave

__all__ = [
    "ValidationReport",
    "check_tangentiality",
    "check_q_residual",
    "check_q_asymptotic",
    "check_e_asymptotic",
    "validate_solution",
    "gamma_for",
]

DIAGONAL_DIRECTION = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


@dataclass
class ValidationReport:
    """The validation quantities of one solved case.

    q_exact and q_asym are the quadrature and asymptotic moments that
    q_asym_rel compares, and e_exact and e_asym the (n, 3) exact and
    point-moment fields at the evaluation points that e_asym_rel compares;
    to_dict leaves the four arrays out.
    """

    tangentiality_max: float
    q_residual_rel: float
    q_asym_rel: float
    e_asym_rel: list[tuple[float, float]]
    q_exact: np.ndarray
    q_asym: np.ndarray
    e_exact: np.ndarray
    e_asym: np.ndarray

    def to_dict(self) -> dict:
        return {
            "tangentiality_max": self.tangentiality_max,
            "q_residual_rel": self.q_residual_rel,
            "q_asym_rel": self.q_asym_rel,
            "e_asym_rel": [[d, e] for d, e in self.e_asym_rel],
        }


def check_tangentiality(current: SurfaceCurrent, mesh: CollocationMesh) -> float:
    """Normalized worst-case normal component of the solved density."""
    j = current.values
    magnitudes = np.linalg.norm(j, axis=1)
    peak = float(magnitudes.max())
    if peak == 0.0:
        raise ValueError("zero surface density has no tangentiality measure")
    normal_part = np.abs(np.einsum("ij,ij->i", j, mesh.normals.astype(complex)))
    return float(normal_part.max()) / peak


def check_q_residual(
    q_exact: np.ndarray, gamma: GammaMatrix, mesh: CollocationMesh, wave: IncidentWave
) -> float:
    """Relative residual of the moment equation (I + gamma) Q = R."""
    rhs = -mesh.volume * wave.curl(mesh.center)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        raise ValueError("zero right-hand side; residual undefined")
    lhs = q_exact + gamma.gamma @ q_exact
    return float(np.linalg.norm(lhs - rhs)) / rhs_norm


def check_q_asymptotic(q_exact: np.ndarray, q_asym: np.ndarray) -> float:
    """Relative gap |Q_e - Q_a| / |Q_e|."""
    q_norm = float(np.linalg.norm(q_exact))
    if q_norm == 0.0:
        raise ValueError("zero exact moment; relative gap undefined")
    return float(np.linalg.norm(np.asarray(q_exact) - np.asarray(q_asym))) / q_norm


def check_e_asymptotic(
    mesh: CollocationMesh,
    wave: IncidentWave,
    current: SurfaceCurrent,
    q_asym: np.ndarray,
    center,
    points,
) -> tuple[list[tuple[float, float]], np.ndarray, np.ndarray]:
    """Per-point relative gap between exact and point-moment fields.

    Returns the (distance from center, |E_e - E_a| / |E_e|) pair of each
    evaluation point, then the (n, 3) fields E_e and E_a it compared.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    e_exact = field_e_exact(mesh, wave, current, points)
    e_asym = field_e_asymptotic(wave, q_asym, center, points)
    gaps = np.linalg.norm(e_exact - e_asym, axis=1) / np.linalg.norm(e_exact, axis=1)
    dists = np.linalg.norm(points - np.asarray(center, dtype=float), axis=1)
    return list(zip(dists.tolist(), gaps.tolist())), e_exact, e_asym


def validate_solution(
    mesh: CollocationMesh,
    wave: IncidentWave,
    current: SurfaceCurrent,
    gamma: GammaMatrix,
    distances=(),
    direction=DIAGONAL_DIRECTION,
) -> ValidationReport:
    """Run all validation checks for one solved body."""
    q_e = moment_q_exact(current, mesh)
    q_a = moment_q_asymptotic(mesh, wave, gamma)
    direction = np.asarray(direction, dtype=float)
    points = mesh.center + np.outer(distances, direction / np.linalg.norm(direction))
    e_asym_rel, e_exact, e_asym = check_e_asymptotic(
        mesh, wave, current, q_a, mesh.center, points
    )
    return ValidationReport(
        tangentiality_max=check_tangentiality(current, mesh),
        q_residual_rel=check_q_residual(q_e, gamma, mesh, wave),
        q_asym_rel=check_q_asymptotic(q_e, q_a),
        e_asym_rel=e_asym_rel,
        q_exact=q_e,
        q_asym=q_a,
        e_exact=e_exact,
        e_asym=e_asym,
    )


def gamma_for(mode: str, mesh: CollocationMesh) -> GammaMatrix:
    """Coupling matrix by gamma mode: sphere | numeric-local | numeric-lab."""
    if mode == "sphere":
        return gamma_sphere_analytic()
    if mode == "numeric-local":
        return gamma_numeric(mesh, frame="local")
    if mode == "numeric-lab":
        return gamma_numeric(mesh, frame="lab")
    raise ValueError(f"unknown gamma_mode {mode!r}")
