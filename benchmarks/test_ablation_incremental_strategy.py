"""Ablation — incremental-update strategy (the paper's open design choice).

Section VI: "Future work will include the implementation of the
incremental update operation.  This task has some open design choices in
terms of the machine learning technique to use and empirical evidence is
needed to guide our choice."  This bench provides that evidence: full
phase-4 retraining versus a Θ-only warm-started Newton refit, compared on
detection quality and optimizer work.
"""

from benchlib import BenchResult
from repro.core.incremental import incremental_update
from repro.eval import format_table, percent
from repro.ids import PSigeneDetector, SignatureEngine

#: The empirical evidence the paper asked for: warm restarts cost a
#: fraction of the optimizer work at a low FPR.
FLOORS = {
    "ablation_incremental_strategy": (
        ("iteration_savings", ">=", 1),
        ("warm_fpr", "<", 0.005),
    ),
}


def _measure(context, signature_set):
    engine = SignatureEngine(PSigeneDetector(signature_set))
    attacks = engine.run(context.datasets.sqlmap)
    benign = engine.run(context.datasets.benign)
    return (
        float(attacks.alert_flags.mean()),
        float(benign.alert_flags.mean()),
    )


def test_incremental_strategy_ablation(benchmark, bench_context, record,
                                       emit, context_corpus):
    fresh = bench_context.datasets.sqlmap.subsample(0.2, seed=200)

    def run_both():
        retrain = incremental_update(
            bench_context.pipeline, bench_context.result,
            fresh.payloads(), strategy="retrain",
        )
        warm = incremental_update(
            bench_context.pipeline, bench_context.result,
            fresh.payloads(), strategy="warm",
        )
        return retrain, warm

    retrain, warm = benchmark.pedantic(run_both, rounds=1, iterations=1)
    retrain_tpr, retrain_fpr = _measure(bench_context, retrain.signature_set)
    warm_tpr, warm_fpr = _measure(bench_context, warm.signature_set)

    table = format_table(
        ["STRATEGY", "NEWTON ITERATIONS", "TPR%(SQLmap)", "FPR%"],
        [
            ["full retrain", retrain.newton_iterations,
             percent(retrain_tpr), percent(retrain_fpr, 4)],
            ["warm-started Θ refit", warm.newton_iterations,
             percent(warm_tpr), percent(warm_fpr, 4)],
        ],
        title="Ablation: incremental update strategy (paper future work)",
    )
    record("ablation_incremental_strategy", table)

    emit(BenchResult(
        bench="ablation_incremental_strategy",
        kind="ablation",
        seed=2012,
        metrics={
            "retrain_iterations": int(retrain.newton_iterations),
            "warm_iterations": int(warm.newton_iterations),
            "iteration_savings": int(
                retrain.newton_iterations - warm.newton_iterations
            ),
            "retrain_tpr": round(float(retrain_tpr), 6),
            "warm_tpr": round(float(warm_tpr), 6),
            "retrain_fpr": round(float(retrain_fpr), 6),
            "warm_fpr": round(float(warm_fpr), 6),
        },
        corpus=context_corpus,
    ))

    # Warm restarts keep detection quality comparable to a retrain.
    assert warm_tpr > retrain_tpr - 0.08
