"""Learning substrate: PCG solver, logistic regression, detection metrics."""

from repro._lazy import lazy_exports
from repro.learn.logistic import (
    LogisticModel,
    TrainingReport,
    log_loss,
    logit,
    sigmoid,
    train_logistic,
)
from repro.learn.pcg import PCGResult, pcg

__all__ = [
    "pcg",
    "PCGResult",
    "sigmoid",
    "logit",
    "log_loss",
    "LogisticModel",
    "TrainingReport",
    "train_logistic",
    "Confusion",
    "confusion_from_alerts",
    "RocCurve",
    "roc_curve",
    "cross_validate",
    "CrossValidationReport",
    "FoldResult",
    "calibration_report",
    "CalibrationReport",
    "ReliabilityBin",
    "score_signature_set",
]

# Evaluation-only modules load on first use; scoring needs ``logistic``.
# ``pcg`` stays eager (it imports numpy where it solves): a lazy export
# named like its module would be rebound to the module by any direct
# ``import repro.learn.pcg`` that came first.
__getattr__ = lazy_exports(__name__, {
    "calibration": (
        "CalibrationReport", "ReliabilityBin", "calibration_report",
        "score_signature_set",
    ),
    "crossval": ("CrossValidationReport", "FoldResult", "cross_validate"),
    "metrics": ("Confusion", "RocCurve", "confusion_from_alerts", "roc_curve"),
})
