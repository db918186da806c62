"""L2-regularized logistic regression trained with Newton–PCG.

Section II-D defines the signature model: the hypothesis
``h_θ(F) = g(θᵀ F)`` with the sigmoid ``g(z) = 1 / (1 + e^{-z})``, trained
on the bicluster's attack samples versus benign traffic; the optimizer is
Preconditioned Conjugate Gradients.  Here each Newton step's linear system
``(XᵀDX + λI) δ = -∇`` is solved by :func:`repro.learn.pcg.pcg` with a
Jacobi preconditioner, which is the standard "PCG for logistic regression"
formulation.

Scoring a deployed signature is scalar arithmetic on a handful of counts,
so :func:`logit`, :class:`LogisticModel`'s Θ and the scalar branch of
:func:`sigmoid` run on Python floats and import nothing; numpy loads
inside the functions that train or score whole matrices.  A serving
process that only scores therefore never loads numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.learn.pcg import pcg

if TYPE_CHECKING:
    import numpy as np


def logit(
    intercept: float,
    terms: Iterable[tuple[int, float]],
    counts: Sequence[float],
) -> float:
    """A signature's score ``z = θ₀ + Σ count_j·w_j`` — its one arithmetic.

    ``terms`` pairs each feature's index into ``counts`` with its weight,
    in the signature's feature order.  The sum runs left to right from
    0.0 and skips zero counts: a skipped term is ±0.0, and adding ±0.0
    to a sum that starts at +0.0 changes no bit.  A signature's own
    feature vector and a count vector shared by a whole set therefore
    give the same bits, and so does any per-feature breakdown that adds
    the same terms in the same order.
    """
    total = 0.0
    for index, weight in terms:
        count = counts[index]
        if count:
            total += count * weight
    return intercept + total


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable sigmoid ``1 / (1 + e^{-z})``."""
    if isinstance(z, (float, int)):
        # Scalar branch — the IDS engines call this once per signature
        # per request.  It is the array branch's two formulas on libm's
        # exp (math.exp), which is also numpy's exp on hosts without
        # AVX512F.  With AVX512F numpy vectorizes exp, and the branches
        # can differ in the last bits: on an AVX512F Xeon with numpy
        # 2.4, 4,569 of 200,000 seeded z in [-40, 40] differ, by at most
        # 2 ULP (tests/learn/test_logistic.py).  Training runs the array
        # branch, so trained Θ does not depend on this one.
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        exp_z = math.exp(z)
        return exp_z / (1.0 + exp_z)
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    if out.ndim == 0:
        return float(out)
    return out


def log_loss(
    y: np.ndarray, probabilities: np.ndarray, *, eps: float = 1e-12
) -> float:
    """Mean negative log-likelihood of labels under predicted probabilities."""
    import numpy as np

    p = np.clip(probabilities, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


@dataclass
class TrainingReport:
    """Optimization diagnostics.

    Attributes:
        newton_iterations: outer Newton steps taken.
        pcg_iterations: total inner CG iterations.
        final_loss: regularized mean log-loss at the solution.
        converged: gradient norm fell under tolerance.
    """

    newton_iterations: int
    pcg_iterations: int
    final_loss: float
    converged: bool


class LogisticModel:
    """A trained logistic classifier ``p = g(θ₀ + θᵀx)``.

    Attributes:
        theta: Θ as a tuple of Python floats, intercept first (the
            paper's Θ prints the intercept as the leading constant, e.g.
            Θ₆ᵀ = −3.761054 + ...).  The values are the float64 ones the
            trainer produced; array math passes them through
            ``np.asarray``.
    """

    def __init__(self, theta: Iterable[float]) -> None:
        self.theta = tuple(float(value) for value in theta)

    @property
    def intercept(self) -> float:
        """θ₀, the bias term."""
        return self.theta[0]

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Per-feature weights θ₁..θ_d."""
        return self.theta[1:]

    def decision(self, features: np.ndarray) -> np.ndarray:
        """The linear score z = θ₀ + θᵀx per row."""
        import numpy as np

        theta = np.asarray(self.theta, dtype=np.float64)
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return theta[0] + features @ theta[1:]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability that each row belongs to the attack class."""
        return sigmoid(self.decision(features))

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 labels at the given probability threshold."""
        return (self.predict_proba(features) >= threshold).astype(int)


def train_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    l2: float = 1.0,
    max_newton: int = 50,
    gradient_tol: float = 1e-6,
    pcg_tol: float = 1e-8,
    class_weighted: bool = True,
    theta0: np.ndarray | None = None,
) -> tuple[LogisticModel, TrainingReport]:
    """Fit logistic regression by Newton's method with PCG inner solves.

    Args:
        features: ``(n, d)`` design matrix (no intercept column; added here).
        labels: ``(n,)`` array of {0, 1}.
        l2: ridge penalty on the non-intercept coefficients.  The penalty
            keeps the Newton Hessian positive definite even when a
            bicluster's features are collinear (the paper notes heavy
            feature overlap) and performs the pruning-like shrinkage
            observed in Table VI.
        max_newton: outer iteration cap.
        gradient_tol: convergence threshold on ``||∇||∞``.
        pcg_tol: inner solver tolerance.
        class_weighted: re-weight classes to balance; the benign trace is
            ~8× larger than any bicluster, and unweighted training would
            push the model toward "never alert".
        theta0: optional warm start (intercept first).  Incremental
            retraining (Experiment 2) converges in a fraction of the
            Newton steps when seeded with the previous Θ.
    """
    import numpy as np

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align with feature rows")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0/1")
    if y.min() == y.max():
        raise ValueError("training needs both classes present")

    n, d = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    if class_weighted:
        positive = y.sum()
        negative = n - positive
        sample_weight = np.where(
            y == 1.0, n / (2.0 * positive), n / (2.0 * negative)
        )
    else:
        sample_weight = np.ones(n)

    ridge = np.full(d + 1, l2)
    ridge[0] = 0.0  # never penalize the intercept

    if theta0 is not None:
        theta = np.asarray(theta0, dtype=np.float64).copy()
        if theta.shape != (d + 1,):
            raise ValueError(
                f"theta0 must have {d + 1} entries, got {theta.shape}"
            )
    else:
        theta = np.zeros(d + 1)
    total_pcg = 0
    converged = False
    for newton_step in range(1, max_newton + 1):
        z = design @ theta
        p = np.asarray(sigmoid(z))
        gradient = design.T @ (sample_weight * (p - y)) + ridge * theta
        if float(np.abs(gradient).max()) < gradient_tol:
            converged = True
            newton_step -= 1
            break
        curvature = sample_weight * p * (1.0 - p)
        # Guard against zero curvature on separable data.
        curvature = np.maximum(curvature, 1e-10)

        def hessian_matvec(v: np.ndarray) -> np.ndarray:
            return design.T @ (curvature * (design @ v)) + ridge * v

        diag = np.einsum("ij,ij->j", design, curvature[:, None] * design)
        diag = diag + ridge
        result = pcg(
            hessian_matvec, -gradient, preconditioner=diag, tol=pcg_tol
        )
        total_pcg += result.iterations
        step = result.x

        # Backtracking line search on the regularized loss.
        current = _loss(design, y, sample_weight, ridge, theta)
        scale = 1.0
        for _ in range(30):
            candidate = theta + scale * step
            if _loss(design, y, sample_weight, ridge, candidate) <= current:
                break
            scale *= 0.5
        theta = theta + scale * step
    else:
        newton_step = max_newton

    probabilities = np.asarray(sigmoid(design @ theta))
    report = TrainingReport(
        newton_iterations=newton_step,
        pcg_iterations=total_pcg,
        final_loss=log_loss(y, probabilities),
        converged=converged,
    )
    return LogisticModel(theta), report


def _loss(
    design: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    ridge: np.ndarray,
    theta: np.ndarray,
) -> float:
    import numpy as np

    z = design @ theta
    # log(1 + e^z) computed stably.
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    nll = float((sample_weight * (softplus - y * z)).sum())
    return nll + 0.5 * float(ridge @ (theta * theta))
