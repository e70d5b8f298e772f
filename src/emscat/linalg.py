"""Dense complex linear solvers: QR factorization oracle and restarted GMRES.

The discretized boundary and coupling operators are identity-plus-compact,
so unpreconditioned GMRES, which every solver runs, converges in a handful
of iterations; the QR path is the tests' oracle only.  Unknown vectors use
the interleaved layout (X1, Y1, Z1, X2, ...) throughout the package.

solve_gmres also solves shifted systems (A + sigma I) x = b for several
sigma and one b at once.  The Krylov space of A + sigma I does not depend
on sigma, so one Arnoldi process on A serves every shift, each shift keeping
its own Givens rotations of H + sigma I (Frommer and Glaessner, SIAM J. Sci.
Comput. 19, 15, 1998).  This saves matvecs only when the shifts share the
right-hand side; several right-hand sides need a block method instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable

import numpy as np

__all__ = [
    "SingularMatrixError",
    "ConvergenceError",
    "SolveReport",
    "solve_direct",
    "solve_gmres",
    "check_solver",
    "check_dense_bytes",
    "solve_operator",
]

#: A diagonal entry of R (A = QR) below this fraction of the largest matrix
#: entry marks the system as numerically singular.
PIVOT_RTOL = 1e-13


class SingularMatrixError(ValueError):
    """Direct factorization hit a diagonal entry of R below the threshold."""


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
    """Solve a dense square complex system by Householder QR, backward stable
    without pivoting (Trefethen and Bau, Numerical Linear Algebra, Lecture 16).

    R of [A | b] holds Q^H b in its last column, so Q is never formed; x is R
    back-substituted.  Raises SingularMatrixError when A is zero or any |R_jj|
    falls below PIVOT_RTOL times the largest entry of A.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length does not match matrix")

    r = np.linalg.qr(np.column_stack([a, b]), mode="r")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    diagonal = np.abs(np.diagonal(r))
    if scale == 0.0 or np.min(diagonal) < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is numerically singular (min |R_jj| {diagonal.min():.3e}, scale {scale:.3e})"
        )
    return _back_substitute(r[:, :len(a)], r[:, len(a):]).reshape(b.shape)


def _back_substitute(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system r y = g, one row at a time from the bottom.

    Row j is (g[j] - r[j, j+1:] @ y[j+1:]) * (1 / r[j, j]), the order in
    which LAPACK's triangular solve works.  The Givens rotations of GMRES
    leave the diagonal real up to rounding, and on such triangles y is
    bit-identical to scipy.linalg.solve_triangular; with a general complex
    diagonal the two form 1 / r[j, j] differently and agree to rounding.
    An exactly zero diagonal entry raises numpy.linalg.LinAlgError, as
    scipy does.
    """
    zero = np.flatnonzero(np.diagonal(r) == 0)
    if zero.size:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {zero[0]}"
        )
    y = np.empty_like(g)
    for j in range(len(g) - 1, -1, -1):
        y[j] = (g[j] - r[j, j + 1:] @ y[j + 1:]) * (1.0 / r[j, j])
    return y


class _ShiftRotations:
    """Givens QR of one shift's Hessenberg matrix H + sigma I, built column by column.

    r holds the rotated columns, cs and sn the rotations and g the rotated
    right-hand side beta e_1, whose entry j + 1 is the residual estimate.
    """

    def __init__(self, sigma: complex, restart: int, beta: float):
        self.sigma = sigma
        self.r = np.zeros((restart + 1, restart), dtype=complex)
        self.cs = np.zeros(restart, dtype=complex)
        self.sn = np.zeros(restart, dtype=complex)
        self.g = np.zeros(restart + 1, dtype=complex)
        self.g[0] = beta

    def add_column(self, column: np.ndarray) -> float:
        """Rotate Arnoldi column j = len(column) - 2, shifted; return |g[j + 1]|."""
        j = len(column) - 2
        h, cs, sn, g = self.r, self.cs, self.sn, self.g
        h[:j + 2, j] = column
        if self.sigma:
            h[j, j] += self.sigma
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
        return abs(g[j + 1])

    def coefficients(self, inner: int) -> np.ndarray:
        """The basis coefficients y of the update V[:inner].T @ y."""
        return _back_substitute(self.r[:inner, :inner], self.g[:inner])


def _gmres_cycle(apply_a, r, beta, sigmas, restart, budget, b_norm, tol, history):
    """One restart cycle from residual r for every shift in sigmas at once.

    One Arnoldi process on A serves every shift; each shift rotates its own
    H + sigma I and stops at the first step whose estimate is below tol.
    Returns (updates, applications of A), updates None when a basis vector
    turned non-finite.  history gets the largest estimate of the shifts
    still running, per step.
    """
    v = np.zeros((restart + 1, r.shape[0]), dtype=complex)
    v[0] = r / beta
    rotations = [_ShiftRotations(sigma, restart, beta) for sigma in sigmas]
    inner = [0] * len(sigmas)
    running = list(range(len(sigmas)))
    used = 0
    for j in range(restart):
        if used >= budget:
            break
        # copy: the operator may return its input (identity) or a view
        w = np.array(apply_a(v[j]), dtype=complex)
        used += 1
        column = np.zeros(j + 2, dtype=complex)
        for i in range(j + 1):
            column[i] = np.vdot(v[i], w)
            w -= column[i] * v[i]
        h_next = float(np.linalg.norm(w))
        if not np.isfinite(h_next):  # so is every residual estimate
            history.append(float("nan"))
            return None, used
        column[j + 1] = h_next

        estimates = {s: rotations[s].add_column(column) / b_norm for s in running}
        history.append(max(estimates.values()))
        for s in running:
            inner[s] = j + 1
        running = [s for s in running if not (estimates[s] <= tol or h_next == 0.0)]
        if not running:
            break
        if j + 1 < restart:
            v[j + 1] = w / h_next

    updates = [v[:k].T @ rot.coefficients(k) for rot, k in zip(rotations, inner)]
    return updates, used


def _residual(apply_a, b, x, sigma):
    """b - (A + sigma I) x."""
    ax = apply_a(x)
    if sigma:
        ax = ax + sigma * x
    return b - ax


def _check_shifts(shifts) -> list:
    """The shifts as a list, [0] for None; ValueError unless finite and non-empty."""
    if shifts is None:
        return [0]
    sigmas = np.asarray(shifts, dtype=complex)
    if sigmas.ndim != 1 or sigmas.size == 0:
        raise ValueError(f"shifts must be a non-empty sequence of numbers, got {shifts!r}")
    if not np.all(np.isfinite(sigmas)):
        raise ValueError(f"shifts hold NaN or inf entries: {shifts!r}")
    return sigmas.tolist()


def _rows(xs: list, shifts) -> np.ndarray:
    """The one solution when unshifted, else the (len(shifts), n) stack."""
    return xs[0] if shifts is None else np.stack(xs)


def solve_gmres(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
    shifts=None,
) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES for a matrix-free complex linear operator, from x = 0.

    apply_a maps a vector of len(b) to another; convergence means the
    relative residual |Ax - b| / |b| dropped below tol.  Non-convergence is
    reported through SolveReport.converged, never raised, so callers can
    attach context.  max_iter caps the total number of inner iterations.
    A bad knob (check_solver) or a non-finite b raises ValueError before
    apply_a is called; a non-finite residual estimate (apply_a returned NaN
    or inf) ends the solve at once, unconverged, with final_residual NaN and
    x the last finite iterate.
    The solver needs numpy only: each restart cycle ends in a back
    substitution on the small Hessenberg triangle (_back_substitute), which
    raises numpy.linalg.LinAlgError on an exactly zero diagonal entry, as
    for a zero operator.

    shifts, a non-empty sequence of finite numbers, solves (A + sigma I) x = b
    for every sigma in it and returns x of shape (len(shifts), len(b)).  The
    first cycle builds one Krylov basis for all of them (the space does not
    depend on sigma); each shift stops at its own step, and one still above
    tol after that cycle restarts alone from its own residual.  The report
    counts each Arnoldi step once, however many shifts it served; its
    final_residual is the largest over the shifts, and converged means every
    shift converged.  A zero shift gives the bits of the unshifted solve.
    """
    check_solver(tol, restart, max_iter)
    b = np.asarray(b, dtype=complex)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side holds NaN or inf entries")
    sigmas = _check_shifts(shifts)
    n = b.shape[0]
    restart = min(restart, n)

    b_norm = float(np.linalg.norm(b))
    xs = [np.zeros_like(b) for _ in sigmas]
    if b_norm == 0.0:
        return _rows(xs, shifts), SolveReport(0, 0.0, True, [])

    finals = [0.0] * len(sigmas)
    history: list[float] = []
    total_iters = 0
    # the first cycle is shared: from x = 0 every shift's residual is b
    work = [(list(range(len(sigmas))), b)]
    while work:
        rows, r = work.pop(0)
        # r is the true residual of the rows' x, so on convergence it is final_residual
        beta = float(np.linalg.norm(r))
        for row in rows:
            finals[row] = beta / b_norm
        if beta / b_norm <= tol or total_iters >= max_iter:
            continue
        updates, used = _gmres_cycle(apply_a, r, beta, [sigmas[i] for i in rows], restart,
                                     max_iter - total_iters, b_norm, tol, history)
        total_iters += used
        if updates is None:
            return _rows(xs, shifts), SolveReport(total_iters, float("nan"), False, history)
        for row, update in zip(rows, updates):
            xs[row] = xs[row] + update
            work.append(([row], _residual(apply_a, b, xs[row], sigmas[row])))

    final = float(np.max(finals))  # NaN if any shift's is
    return _rows(xs, shifts), SolveReport(
        iterations=total_iters,
        final_residual=final,
        converged=final <= tol,
        residual_history=history,
    )


def check_positive(name: str, value, zero: bool = False) -> None:
    """Raise ValueError naming name unless value is a finite real number > 0,
    or >= 0 with zero.  A bool is refused; numpy numbers are accepted."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (np.isfinite(value) and (value > 0 or zero and value == 0))):
        bound = "of at least 0" if zero else "greater than 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError naming name unless value is an integer >= least.
    A bool is refused; numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_solver(tol, restart, max_iter) -> None:
    """Raise ValueError naming the knob unless tol is a finite number > 0 and
    restart and max_iter are integers >= 1.

    The solvers call it before they assemble their operator, so a bad knob
    fails before any O(N^2) work.
    """
    check_positive("tol", tol)
    check_count("restart", restart, 1)
    check_count("max_iter", max_iter, 1)


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_dense_bytes(nbytes: int, what: str) -> None:
    """Raise ValueError, naming what and its size, if nbytes exceed physical memory.

    Callers estimate a dense array before they allocate it, so a body too
    finely meshed for this machine fails at once with a message instead of a
    MemoryError traceback or an out-of-memory kill.
    """
    limit = physical_memory()
    if nbytes > limit:
        raise ValueError(f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
                         f"{limit / 2**30:.3g} GiB of physical memory")


def solve_operator(
    operator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
    what: str = "linear",
    shifts=None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve operator x = rhs by GMRES on operator.matvec.

    The matrix is never materialized.  Raises ConvergenceError ("<what>
    solve stalled ...") when GMRES stalls.  shifts solves
    (operator + sigma I) x = rhs for each sigma, as in solve_gmres.
    """
    x, report = solve_gmres(operator.matvec, rhs, tol=tol, restart=restart,
                            max_iter=max_iter, shifts=shifts)
    if not report.converged:
        raise ConvergenceError(
            f"{what} solve stalled at residual {report.final_residual:.3e}", report
        )
    return x, report
