"""Ablation — the black-hole exclusion rule.

The paper drops biclusters "composed of vectors of mostly zeroes"
(biclusters 9 and 10) and trains no signatures for them.  This bench
quantifies why: retraining *with* the black-hole clusters included
recovers a little TPR on bare probes but costs false positives, since a
probe signature is essentially "alert on any quote".
"""

import numpy as np

from benchlib import BenchResult
from repro.core import SignatureSet
from repro.core.generalizer import SignatureGeneralizer
from repro.eval import format_table, percent
from repro.ids import PSigeneDetector, SignatureEngine
from repro.learn import confusion_from_alerts

#: Including the probe clusters can only add coverage, but never at a
#: better FPR: probe signatures are noisy.
FLOORS = {
    "ablation_blackhole_rule": (
        ("tpr_gain", ">=", -1e-9),
        ("fpr_cost", ">=", 0.0),
    ),
}


def _with_black_holes(context):
    """Signature set that also trains the black-hole biclusters."""
    result = context.result
    generalizer = SignatureGeneralizer(context.pipeline.config.generalizer)
    rng = np.random.default_rng(0)
    signatures = [t.signature for t in result.trainings]
    for bicluster in result.biclusters:
        if not bicluster.is_black_hole or bicluster.n_samples < 2:
            continue
        training = generalizer.train(
            bicluster, result.matrix.counts, result.benign_matrix.counts,
            result.catalog, rng=rng,
        )
        signatures.append(training.signature)
    return SignatureSet(signatures, normalizer=context.pipeline.normalizer)


def test_blackhole_rule_ablation(benchmark, bench_context, record, emit,
                                 context_corpus):
    with_holes = benchmark.pedantic(
        _with_black_holes, args=(bench_context,), rounds=1, iterations=1
    )
    datasets = bench_context.datasets

    def measure(signature_set):
        engine = SignatureEngine(PSigeneDetector(signature_set))
        attacks = engine.run(datasets.sqlmap)
        benign = engine.run(datasets.benign)
        return confusion_from_alerts(
            attacks.alert_flags, benign.alert_flags
        )

    without = measure(bench_context.result.signature_set)
    included = measure(with_holes)

    table = format_table(
        ["CONFIGURATION", "SIGNATURES", "TPR%(SQLmap)", "FPR%"],
        [
            ["black holes excluded (paper)",
             len(bench_context.result.signature_set),
             percent(without.tpr), percent(without.fpr, 4)],
            ["black holes included",
             len(with_holes), percent(included.tpr),
             percent(included.fpr, 4)],
        ],
        title="Ablation: the black-hole exclusion rule",
    )
    record("ablation_blackhole_rule", table)

    emit(BenchResult(
        bench="ablation_blackhole_rule",
        kind="ablation",
        seed=2012,
        metrics={
            "excluded_signatures": len(
                bench_context.result.signature_set
            ),
            "included_signatures": len(with_holes),
            "excluded_tpr": round(float(without.tpr), 6),
            "excluded_fpr": round(float(without.fpr), 6),
            "included_tpr": round(float(included.tpr), 6),
            "included_fpr": round(float(included.fpr), 6),
            "tpr_gain": round(float(included.tpr - without.tpr), 6),
            "fpr_cost": round(float(included.fpr - without.fpr), 6),
        },
        corpus=context_corpus,
    ))
