"""Preconditioned Conjugate Gradients linear solver.

Section II-D: "We used the Preconditioned Conjugate Gradients (PCG) method
[11] to find the optimal parameters Θ of the regression model for each
bicluster."  The solver here is the standard PCG iteration (Eisenstat's
class of methods reduces to this with an SPD preconditioner); the logistic
trainer uses it with a Jacobi (diagonal) preconditioner to solve each
Newton system.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.registry import get_registry

if TYPE_CHECKING:
    import numpy as np

MatVec = Callable[["np.ndarray"], "np.ndarray"]


def _record_solve(result: "PCGResult") -> "PCGResult":
    """Feed the solver's registry counters; returns the result unchanged.

    The paper leans on PCG for every per-bicluster Θ (Section II-D);
    iteration counts are the cheapest early warning that a Newton system
    went ill-conditioned, so each solve reports them process-wide.
    """
    registry = get_registry()
    registry.counter(
        "repro_pcg_solves_total", "PCG linear solves performed.",
    ).inc()
    registry.counter(
        "repro_pcg_iterations_total", "Total PCG iterations across solves.",
    ).inc(result.iterations)
    if not result.converged:
        registry.counter(
            "repro_pcg_nonconverged_total",
            "PCG solves that hit the iteration cap or lost SPD.",
        ).inc()
    return result


@dataclass
class PCGResult:
    """Solver outcome.

    Attributes:
        x: the solution estimate.
        iterations: CG iterations performed.
        residual_norm: final ``||b - Ax||``.
        converged: whether the tolerance was met.
    """

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def pcg(
    matvec: MatVec,
    b: np.ndarray,
    *,
    preconditioner: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int | None = None,
) -> PCGResult:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    Args:
        matvec: computes ``A @ v`` (the Hessian is never materialized when
            the caller can fuse ``XᵀD X v``).
        b: right-hand side.
        preconditioner: diagonal of ``M`` for Jacobi preconditioning
            (``M⁻¹ r`` is element-wise division); ``None`` disables it.
        x0: starting point (zeros by default).
        tol: relative residual tolerance ``||r|| ≤ tol·||b||``.
        max_iterations: iteration cap (default: problem dimension × 2).
    """
    import numpy as np

    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if max_iterations is None:
        max_iterations = 2 * n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if preconditioner is not None:
        diag = np.asarray(preconditioner, dtype=np.float64)
        if (diag <= 0).any():
            raise ValueError("Jacobi preconditioner must be positive")
    else:
        diag = None

    r = b - matvec(x)
    z = r / diag if diag is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    threshold = tol * max(b_norm, 1e-300)

    iterations = 0
    while iterations < max_iterations:
        r_norm = float(np.linalg.norm(r))
        if r_norm <= threshold:
            return _record_solve(PCGResult(x, iterations, r_norm, True))
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0:
            # Numerical loss of positive-definiteness; bail with best x.
            return _record_solve(PCGResult(x, iterations, r_norm, False))
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = r / diag if diag is not None else r
        rz_next = float(r @ z)
        beta = rz_next / rz
        p = z + beta * p
        rz = rz_next
        iterations += 1

    return _record_solve(
        PCGResult(x, iterations, float(np.linalg.norm(r)), False)
    )
