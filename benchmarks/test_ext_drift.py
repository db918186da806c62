"""Extension — concept drift and automatic recovery.

Quantifies Section I's motivation: when the attack landscape shifts away
from the training mix, detection decays; pSigene's automatic incremental
update (Experiment 2's machinery, warm-started) wins detection back
without any manual signature work.
"""

from benchlib import BenchResult
from repro.eval import format_table, percent
from repro.eval.drift import drift_study

#: Generalization keeps drifted traffic mostly detected before any
#: update, and the automatic update ends at a high operating point.
FLOORS = {
    "ext_drift": (
        ("min_tpr_before", ">", 0.5),
        ("final_tpr_after", ">", 0.7),
    ),
}


def test_drift_and_recovery(benchmark, bench_context, record, emit):
    rounds = benchmark.pedantic(
        drift_study,
        args=(bench_context.pipeline, bench_context.result),
        kwargs={"epochs": 3, "shift": 4.0, "samples_per_epoch": 400,
                "seed": 99},
        rounds=1, iterations=1,
    )
    table = format_table(
        ["EPOCH", "DRIFT SHIFT", "TPR% BEFORE UPDATE",
         "TPR% AFTER UPDATE"],
        [
            [r.epoch, r.shift, percent(r.tpr_before_update),
             percent(r.tpr_after_update)]
            for r in rounds
        ],
        title="Extension: detection under concept drift, with automatic "
              "incremental recovery",
    )
    record("ext_drift", table)

    emit(BenchResult(
        bench="ext_drift",
        kind="extension",
        seed=99,
        metrics={
            "epochs": len(rounds),
            "min_tpr_before": round(
                min(float(r.tpr_before_update) for r in rounds), 6
            ),
            "final_tpr_after": round(
                float(rounds[-1].tpr_after_update), 6
            ),
            "max_update_loss": round(
                max(
                    float(r.tpr_before_update - r.tpr_after_update)
                    for r in rounds
                ), 6
            ),
        },
        data={
            "rounds": [
                {
                    "epoch": int(r.epoch),
                    "shift": round(float(r.shift), 3),
                    "tpr_before_update": round(
                        float(r.tpr_before_update), 6
                    ),
                    "tpr_after_update": round(
                        float(r.tpr_after_update), 6
                    ),
                }
                for r in rounds
            ],
        },
    ))

    assert len(rounds) == 3
    # The automatic update never loses ground.
    assert all(
        r.tpr_after_update >= r.tpr_before_update - 0.05 for r in rounds
    )
