"""Ablation — the 5% bicluster-selection rule.

Section III-D selects biclusters holding ≥5% of the training samples.
This bench sweeps the threshold and reports how many biclusters survive
and how much of the corpus they cover — the trade the rule navigates:
lower thresholds admit noisy micro-clusters, higher ones discard whole
attack families.
"""

import numpy as np

from benchlib import BenchResult
from repro.cluster import Biclusterer
from repro.eval import format_table

#: The paper's 5% point keeps multiple clusters and high coverage.
FLOORS = {
    "ablation_selection_rule": (
        ("paper_biclusters", ">=", 5),
        ("paper_coverage", ">", 0.6),
    ),
}


def _sweep(context):
    matrix = context.result.matrix
    rng = np.random.default_rng(context.pipeline.config.seed + 2)
    cap = context.pipeline.config.max_cluster_rows
    n = matrix.n_samples
    subset = (
        np.sort(rng.choice(n, cap, replace=False)) if n > cap
        else np.arange(n)
    )
    counts = matrix.counts[subset]
    rows = []
    for fraction in (0.01, 0.025, 0.05, 0.10, 0.20):
        result = Biclusterer(min_fraction=fraction).fit(counts)
        covered = sum(b.n_samples for b in result.biclusters)
        rows.append({
            "min_fraction": fraction,
            "biclusters": len(result.biclusters),
            "active": len(result.active()),
            "coverage": covered / counts.shape[0],
        })
    return rows


def test_selection_rule_ablation(benchmark, bench_context, record, emit):
    rows = benchmark.pedantic(
        _sweep, args=(bench_context,), rounds=1, iterations=1
    )
    table = format_table(
        ["MIN FRACTION", "BICLUSTERS", "ACTIVE", "SAMPLE COVERAGE"],
        [
            [f"{r['min_fraction']:.1%}", r["biclusters"], r["active"],
             f"{r['coverage']:.2f}"]
            for r in rows
        ],
        title="Ablation: bicluster selection threshold (paper uses 5%)",
    )
    record("ablation_selection_rule", table)

    by_fraction = {r["min_fraction"]: r for r in rows}
    emit(BenchResult(
        bench="ablation_selection_rule",
        kind="ablation",
        seed=2012,
        metrics={
            "paper_biclusters": int(by_fraction[0.05]["biclusters"]),
            "paper_active": int(by_fraction[0.05]["active"]),
            "paper_coverage": round(
                float(by_fraction[0.05]["coverage"]), 6
            ),
        },
        data={"rows": rows},
    ))
    # Looser thresholds never select fewer clusters.
    counts = [r["biclusters"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    # A 20% threshold collapses the structure.
    assert (
        by_fraction[0.20]["biclusters"] <= by_fraction[0.05]["biclusters"]
    )
