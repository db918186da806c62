"""Figure 3 — per-signature ROC curves.

Paper: one ROC per generalized signature, FPR axis truncated at 0.05;
wide variability across signatures (signature 6 strong, signature 4
lagging); several signatures insensitive to the threshold; the curves let
an operator pick which signatures to enable.
"""

import numpy as np

from benchlib import BenchResult
from repro.eval import figure3_roc, format_table

#: Wide variability in signature quality (the paper's first
#: observation), and the best signatures genuinely detect within the
#: low-FPR window.
FLOORS = {
    "figure3_roc": (
        ("best_partial_auc", ">", 0.02),
        ("auc_spread", ">", 0.0),
    ),
}


def test_figure3(benchmark, bench_context, record, emit, context_corpus):
    curves = benchmark.pedantic(
        figure3_roc, args=(bench_context,), rounds=1, iterations=1
    )
    rows = []
    for index, curve in sorted(curves.items()):
        rows.append([
            f"signature {index}",
            f"{curve.auc(max_fpr=0.05):.4f}",
            f"{curve.auc():.4f}",
            f"{curve.tpr[np.argmin(np.abs(curve.thresholds - 0.5))]:.3f}",
        ])
    table = format_table(
        ["SIGNATURE", "AUC(FPR<=0.05)", "AUC(full)", "TPR@0.5"],
        rows,
        title="Figure 3 (measured, summarized as partial AUCs)",
    )
    # Also dump the raw series for external plotting.
    series_lines = []
    for index, curve in sorted(curves.items()):
        for fpr, tpr in zip(curve.fpr, curve.tpr):
            if fpr <= 0.05:
                series_lines.append(f"{index}\t{fpr:.6f}\t{tpr:.6f}")
    record("figure3_roc", table)
    record("figure3_roc_series", "signature\tfpr\ttpr\n" +
           "\n".join(series_lines))

    aucs = [c.auc(max_fpr=0.05) for c in curves.values()]
    emit(BenchResult(
        bench="figure3_roc",
        kind="figure",
        seed=2012,
        metrics={
            "curves": len(curves),
            "best_partial_auc": round(float(max(aucs)), 6),
            "worst_partial_auc": round(float(min(aucs)), 6),
            "auc_spread": round(float(max(aucs) - min(aucs)), 6),
        },
        data={
            "partial_auc_by_signature": {
                str(index): round(float(curve.auc(max_fpr=0.05)), 6)
                for index, curve in sorted(curves.items())
            },
        },
        corpus=context_corpus,
    ))

    # One curve per signature.
    assert len(curves) == len(bench_context.result.signature_set)
    # Curves are valid: monotone TPR over sorted FPR.
    for curve in curves.values():
        order = np.argsort(curve.fpr)
        assert (np.diff(curve.tpr[order]) >= -1e-9).all()
