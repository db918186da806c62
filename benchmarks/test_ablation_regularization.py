"""Ablation — L2 regularization of the logistic signature models.

DESIGN.md calls out the ridge strength as the knob behind Table VI's
feature pruning: stronger regularization shrinks more coefficients under
the pruning threshold, producing smaller signatures at some TPR cost.
"""

import numpy as np

from benchlib import BenchResult
from repro.core import GeneralizerConfig, SignatureSet
from repro.core.generalizer import SignatureGeneralizer
from repro.eval import format_table, percent
from repro.ids import PSigeneDetector, SignatureEngine

#: Heavier regularization shrinks the weights, and every setting still
#: detects the bulk of the attacks — the method is not knife-edge
#: sensitive to the ridge.
FLOORS = {
    "ablation_regularization": (
        ("weight_shrink", ">", 0.0),
        ("min_tpr", ">", 0.5),
    ),
}


def _retrain(context, l2):
    result = context.result
    generalizer = SignatureGeneralizer(GeneralizerConfig(l2=l2))
    rng = np.random.default_rng(0)
    signatures = []
    for bicluster in result.biclusters:
        if bicluster.is_black_hole or bicluster.n_samples < 2:
            continue
        training = generalizer.train(
            bicluster, result.matrix.counts, result.benign_matrix.counts,
            result.catalog, rng=rng,
        )
        signatures.append(training.signature)
    return SignatureSet(signatures, normalizer=context.pipeline.normalizer)


def _sweep(context):
    rows = []
    for l2 in (0.01, 1.0, 100.0):
        signature_set = _retrain(context, l2)
        engine = SignatureEngine(PSigeneDetector(signature_set))
        run = engine.run(context.datasets.sqlmap)
        rows.append({
            "l2": l2,
            "tpr": float(run.alert_flags.mean()),
            "mean_features": float(np.mean(
                [s.n_features for s in signature_set]
            )),
            "mean_weight_norm": float(np.mean([
                np.linalg.norm(s.model.coefficients)
                for s in signature_set
            ])),
        })
    return rows


def test_regularization_ablation(benchmark, bench_context, record, emit,
                                 context_corpus):
    rows = benchmark.pedantic(
        _sweep, args=(bench_context,), rounds=1, iterations=1
    )
    table = format_table(
        ["L2", "TPR%(SQLmap)", "MEAN SIGNATURE FEATURES",
         "MEAN ||θ||"],
        [
            [r["l2"], percent(r["tpr"]), f"{r['mean_features']:.1f}",
             f"{r['mean_weight_norm']:.2f}"]
            for r in rows
        ],
        title="Ablation: ridge strength of the signature models",
    )
    record("ablation_regularization", table)

    by_l2 = {r["l2"]: r for r in rows}
    emit(BenchResult(
        bench="ablation_regularization",
        kind="ablation",
        seed=2012,
        metrics={
            "weight_norm_low_l2": round(
                float(by_l2[0.01]["mean_weight_norm"]), 6
            ),
            "weight_norm_high_l2": round(
                float(by_l2[100.0]["mean_weight_norm"]), 6
            ),
            "weight_shrink": round(
                float(
                    by_l2[0.01]["mean_weight_norm"]
                    - by_l2[100.0]["mean_weight_norm"]
                ),
                6,
            ),
            "min_tpr": round(float(min(r["tpr"] for r in rows)), 6),
        },
        data={"rows": rows},
        corpus=context_corpus,
    ))
