"""Ablation — count features versus binary features.

Section II-B: "We also considered using only binary features ... rather
than its count.  However, this did not produce good results."  This bench
reruns signature training with the training matrix binarized and compares
detection on the SQLmap set.
"""

import numpy as np

from benchlib import BenchResult
from repro.eval import format_table, percent
from repro.ids import PSigeneDetector, SignatureEngine
from repro.learn import confusion_from_alerts

#: The paper's direction: binary features "did not produce good
#: results".  What counts buy is precision — erasing repetition
#: structure (char() runs, stacked quotes) makes benign text look more
#: like attacks, so the binarized set must not have a *better* FPR,
#: while the count set keeps comparable recall.
FLOORS = {
    "ablation_binary_features": (
        ("fpr_penalty", ">=", 0.0),
        ("tpr_edge", ">=", -0.08),
    ),
}


def _retrain_binary(context):
    """Retrain every signature on the binarized matrices."""
    from repro.core.generalizer import SignatureGeneralizer

    result = context.result
    generalizer = SignatureGeneralizer(context.pipeline.config.generalizer)
    binary_attack = result.matrix.as_binary()
    binary_benign = result.benign_matrix.as_binary()
    rng = np.random.default_rng(0)
    signatures = []
    for bicluster in result.biclusters:
        if bicluster.is_black_hole or bicluster.n_samples < 2:
            continue
        training = generalizer.train(
            bicluster, binary_attack.counts, binary_benign.counts,
            result.catalog, rng=rng,
        )
        signatures.append(training.signature)
    from repro.core import SignatureSet

    return SignatureSet(signatures, normalizer=context.pipeline.normalizer)


def test_binary_features_ablation(benchmark, bench_context, record, emit,
                                  context_corpus):
    binary_set = benchmark.pedantic(
        _retrain_binary, args=(bench_context,), rounds=1, iterations=1
    )
    datasets = bench_context.datasets

    def measure(signature_set):
        engine = SignatureEngine(PSigeneDetector(signature_set))
        attack = engine.run(datasets.sqlmap)
        benign = engine.run(datasets.benign)
        return confusion_from_alerts(
            attack.alert_flags, benign.alert_flags
        )

    nine, _ = bench_context.psigene_sets()
    counts = measure(nine)
    binary = measure(binary_set)

    table = format_table(
        ["FEATURES", "TPR%(SQLmap)", "FPR%"],
        [
            ["counts (paper's choice)", percent(counts.tpr),
             percent(counts.fpr, 4)],
            ["binary (rejected)", percent(binary.tpr),
             percent(binary.fpr, 4)],
        ],
        title="Ablation: count vs binary features",
    )
    record("ablation_binary_features", table)

    emit(BenchResult(
        bench="ablation_binary_features",
        kind="ablation",
        seed=2012,
        metrics={
            "counts_tpr": round(float(counts.tpr), 6),
            "counts_fpr": round(float(counts.fpr), 6),
            "binary_tpr": round(float(binary.tpr), 6),
            "binary_fpr": round(float(binary.fpr), 6),
            "fpr_penalty": round(float(binary.fpr - counts.fpr), 6),
            "tpr_edge": round(float(counts.tpr - binary.tpr), 6),
        },
        corpus=context_corpus,
    ))
