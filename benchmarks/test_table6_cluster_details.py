"""Table VI — details of the signatures for each bicluster.

Paper: nine signatures; cluster sizes 1,671–13,272 samples (largest ≈ 8×
smallest); three clusters use 90 biclustering features but logistic
regression prunes them hard (90 → 33, 13, 11); all but one signature use
≤ 14 features.
"""

from benchlib import BenchResult
from repro.eval import format_table, table6_cluster_details

#: Paper: nine signatures, with a wide spread of cluster sizes.
FLOORS = {
    "table6_cluster_details": (
        ("n_signatures", ">=", 5),
        ("n_signatures", "<=", 9),
        ("size_spread", ">=", 1.5),
    ),
}


def test_table6(benchmark, bench_context, record, emit):
    rows = benchmark.pedantic(
        table6_cluster_details, args=(bench_context,),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["BICLUSTER", "SAMPLES", "FEATURES (BICLUSTERING)",
         "FEATURES (SIGNATURE)"],
        [
            [r["bicluster"], r["samples"], r["features_biclustering"],
             r["features_signature"]]
            for r in rows
        ],
        title="Table VI (measured) — paper values in module docstring",
    )
    record("table6_cluster_details", table)

    sizes = [r["samples"] for r in rows]
    compact = sum(1 for r in rows if r["features_signature"] <= 14)
    emit(BenchResult(
        bench="table6_cluster_details",
        kind="table",
        seed=2012,
        metrics={
            "n_signatures": len(rows),
            "size_spread": round(max(sizes) / min(sizes), 3),
            "compact_signatures": compact,
            "max_signature_features": int(
                max(r["features_signature"] for r in rows)
            ),
        },
        data={"rows": rows},
    ))

    # Logistic pruning: signatures never exceed, and usually shrink,
    # their bicluster's feature set.
    assert all(
        r["features_signature"] <= r["features_biclustering"]
        for r in rows
    )
    assert any(
        r["features_signature"] < r["features_biclustering"]
        for r in rows
    )

    # Most signatures are compact (paper: all but one ≤ 14 features).
    assert compact >= len(rows) - 2
