"""Table II — sources of SQLi features.

Paper: three sources — MySQL reserved words, NIDS/WAF signatures
(deconstructed into components), and SQLi reference documents — feeding an
initial catalog of 477 features, reduced to 159 active ones by pruning
(the pruning half is asserted against the bench corpus here).
"""

from benchlib import BenchResult
from repro.eval import format_table, table2_feature_sources

#: Three sources feed the 477-feature catalog, and pruning lands in the
#: paper's regime (477 → 159 there; an order-one fraction survives).
FLOORS = {
    "table2_feature_sources": (
        ("sources", "==", 3),
        ("initial_features", "==", 477),
        ("final_features", ">=", 80),
        ("final_features", "<=", 250),
    ),
}


def test_table2(benchmark, bench_context, record, emit):
    rows = benchmark.pedantic(table2_feature_sources, rounds=1, iterations=1)
    table = format_table(
        ["FEATURE SOURCE", "FEATURES", "EXAMPLES"],
        [
            [r["source"], r["features"], "; ".join(r["examples"][:2])]
            for r in rows
        ],
        title="Table II (measured) — paper: 3 sources, 477 initial features",
    )
    record("table2_feature_sources", table)

    pruning = bench_context.result.pruning
    emit(BenchResult(
        bench="table2_feature_sources",
        kind="table",
        seed=2012,
        metrics={
            "sources": len(rows),
            "initial_features": int(
                sum(r["features"] for r in rows)
            ),
            "final_features": int(pruning.final_features),
        },
        data={"rows": rows},
    ))

    # Pruning starts from the whole catalog.
    assert pruning.initial_features == 477
