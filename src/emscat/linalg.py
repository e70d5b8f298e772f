"""Dense complex linear solvers: LU factorization oracle and restarted GMRES.

The discretized boundary and coupling operators are identity-plus-compact,
so unpreconditioned GMRES converges in a handful of iterations; the LU path
exists as an independent oracle and for small systems.  Unknown vectors use
the interleaved layout (X1, Y1, Z1, X2, ...) throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "ConvergenceError",
    "SolveReport",
    "solve_direct",
    "solve_gmres",
    "solve_operator",
]

#: A pivot below this fraction of the largest matrix entry marks the system
#: as numerically singular.
PIVOT_RTOL = 1e-13


class SingularMatrixError(ValueError):
    """Direct factorization hit a pivot that underflows the threshold."""


class ConvergenceError(RuntimeError):
    """Iterative solve stopped without reaching the requested tolerance."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    iterations counts matrix applications; final_residual is the true
    relative residual |Ax - b| / |b| recomputed from the returned x;
    residual_history holds the per-inner-iteration GMRES estimates.
    """

    iterations: int
    final_residual: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


def solve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense square complex system by partial-pivoting LU.

    Raises SingularMatrixError when any U pivot magnitude falls below
    PIVOT_RTOL times the largest entry of A.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length does not match matrix")

    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or np.min(pivots) < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is numerically singular (min pivot {pivots.min():.3e}, scale {scale:.3e})"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def solve_gmres(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES for a matrix-free complex linear operator, from x = 0.

    apply_a maps a vector of len(b) to another; convergence means the
    relative residual |Ax - b| / |b| dropped below tol.  Non-convergence is
    reported through SolveReport.converged, never raised, so callers can
    attach context.  max_iter caps the total number of inner iterations.
    A non-finite b raises ValueError before apply_a is called; a non-finite
    residual estimate (apply_a returned NaN or inf) ends the solve at once,
    unconverged, with final_residual NaN and x the last finite iterate.
    """
    b = np.asarray(b, dtype=complex)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side holds NaN or inf entries")
    n = b.shape[0]
    restart = max(1, min(restart, n))

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True, [])

    x, r = np.zeros_like(b), b
    history: list[float] = []
    total_iters = 0

    while True:
        # r is the true residual of x, so on convergence it is final_residual
        beta = float(np.linalg.norm(r))
        final = beta / b_norm
        if final <= tol or total_iters >= max_iter:
            break

        # Arnoldi with Givens rotations on the Hessenberg matrix.
        v = np.zeros((restart + 1, n), dtype=complex)
        h = np.zeros((restart + 1, restart), dtype=complex)
        cs = np.zeros(restart, dtype=complex)
        sn = np.zeros(restart, dtype=complex)
        g = np.zeros(restart + 1, dtype=complex)
        v[0] = r / beta
        g[0] = beta

        inner = 0
        for j in range(restart):
            if total_iters >= max_iter:
                break
            # copy: the operator may return its input (identity) or a view
            w = np.array(apply_a(v[j]), dtype=complex)
            total_iters += 1
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w -= h[i, j] * v[i]
            h_next = float(np.linalg.norm(w))
            if not np.isfinite(h_next):  # so is the residual estimate
                history.append(float("nan"))
                return x, SolveReport(total_iters, float("nan"), False, history)
            h[j + 1, j] = h_next

            for i in range(j):
                temp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -np.conj(sn[i]) * h[i, j] + np.conj(cs[i]) * h[i + 1, j]
                h[i, j] = temp
            denom = np.sqrt(np.abs(h[j, j]) ** 2 + np.abs(h[j + 1, j]) ** 2)
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = np.conj(h[j, j]) / denom
                sn[j] = np.conj(h[j + 1, j]) / denom
            h[j, j] = cs[j] * h[j, j] + sn[j] * h[j + 1, j]
            h[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]

            inner = j + 1
            history.append(abs(g[j + 1]) / b_norm)
            if history[-1] <= tol or h_next == 0.0:
                break
            if j + 1 < restart:
                v[j + 1] = w / h_next

        if inner > 0:
            y = scipy.linalg.solve_triangular(h[:inner, :inner], g[:inner], check_finite=False)
            x = x + v[:inner].T @ y

        r = b - apply_a(x)

    return x, SolveReport(
        iterations=total_iters,
        final_residual=final,
        converged=final <= tol,
        residual_history=history,
    )


def solve_operator(
    operator,
    rhs: np.ndarray,
    method: str = "gmres",
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
    what: str = "linear",
) -> tuple[np.ndarray, SolveReport]:
    """Solve operator x = rhs for an operator with matvec and to_dense.

    method "gmres" never materializes the matrix and raises ConvergenceError
    ("<what> solve stalled ...") when GMRES stalls; "direct" factorizes
    to_dense() with the LU oracle and reports the true relative residual.
    """
    if method == "direct":
        x = solve_direct(operator.to_dense(), rhs)
        residual = float(
            np.linalg.norm(operator.matvec(x) - rhs) / max(np.linalg.norm(rhs), 1e-300)
        )
        return x, SolveReport(iterations=1, final_residual=residual, converged=True)
    if method == "gmres":
        x, report = solve_gmres(operator.matvec, rhs, tol=tol, restart=restart, max_iter=max_iter)
        if not report.converged:
            raise ConvergenceError(
                f"{what} solve stalled at residual {report.final_residual:.3e}", report
            )
        return x, report
    raise ValueError(f"unknown method {method!r}")
