"""Extension — are the signature probabilities honest?

Section II-D interprets the sigmoid output as "the estimated probability
that a sample belongs to a class" and Section IV's operating guidance
rests on that reading.  This bench runs a reliability analysis over the
test traffic: expected calibration error, Brier score, and the
reliability bins behind them.
"""

import numpy as np

from benchlib import BenchResult
from repro.eval import format_table
from repro.learn.calibration import calibration_report

#: The probabilistic interpretation must hold at the extremes: the
#: lowest bin is overwhelmingly benign, the highest overwhelmingly
#: attacks, and the overall error scores stay small.
FLOORS = {
    "ext_calibration": (
        ("ece", "<", 0.12),
        ("brier", "<", 0.1),
        ("low_bin_rate", "<", 0.2),
        ("high_bin_rate", ">", 0.8),
    ),
}


def test_signature_probability_calibration(benchmark, bench_context,
                                           record, emit, context_corpus):
    nine, _ = bench_context.psigene_sets()
    datasets = bench_context.datasets

    def build_report():
        attacks = bench_context.signature_scores(
            nine, datasets.sqlmap
        ).max(axis=1)
        benign = bench_context.signature_scores(
            nine, datasets.benign
        ).max(axis=1)
        scores = np.concatenate([attacks, benign])
        labels = np.concatenate([
            np.ones(attacks.size), np.zeros(benign.size)
        ])
        return calibration_report(scores, labels, n_bins=10)

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    table = format_table(
        ["BIN", "COUNT", "MEAN PREDICTED", "OBSERVED ATTACK RATE", "GAP"],
        [
            [f"[{b.low:.1f},{b.high:.1f})", b.count,
             f"{b.mean_predicted:.3f}", f"{b.observed_rate:.3f}",
             f"{b.gap:.3f}"]
            for b in report.bins
        ],
        title=(
            f"Extension: signature-probability reliability — "
            f"ECE={report.ece:.4f}, Brier={report.brier:.4f} over "
            f"{report.n_samples} requests"
        ),
    )
    record("ext_calibration", table)

    emit(BenchResult(
        bench="ext_calibration",
        kind="extension",
        seed=2012,
        metrics={
            "ece": round(float(report.ece), 6),
            "brier": round(float(report.brier), 6),
            "n_samples": int(report.n_samples),
            "low_bin_rate": round(float(report.bins[0].observed_rate), 6),
            "high_bin_rate": round(
                float(report.bins[-1].observed_rate), 6
            ),
        },
        data={
            "bins": [
                {
                    "low": round(float(b.low), 3),
                    "high": round(float(b.high), 3),
                    "count": int(b.count),
                    "mean_predicted": round(float(b.mean_predicted), 6),
                    "observed_rate": round(float(b.observed_rate), 6),
                }
                for b in report.bins
            ],
        },
        corpus=context_corpus,
    ))
