"""Figure 4 — cumulative TPR of the signature set.

Paper: signatures sorted by quality; signature 1 contributes the most
(19%), signatures 7 and 8 the least (1.64% each); all contribute
non-trivially and the running sum reaches the set's overall TPR.
"""

from benchlib import BenchResult
from repro.eval import figure4_cumulative_tpr, format_table

#: The top signature carries a large share, and the set as a whole
#: detects most attacks.
FLOORS = {
    "figure4_cumulative_tpr": (
        ("top_marginal", ">=", 0.1),
        ("set_tpr", ">", 0.7),
    ),
}


def test_figure4(benchmark, bench_context, record, emit, context_corpus):
    rows = benchmark.pedantic(
        figure4_cumulative_tpr, args=(bench_context,),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["RANK", "SIGNATURE", "INDIVIDUAL TPR", "MARGINAL",
         "CUMULATIVE TPR"],
        [
            [r["rank"], r["signature"], f"{r['individual_tpr']:.4f}",
             f"{r['marginal']:.4f}", f"{r['cumulative_tpr']:.4f}"]
            for r in rows
        ],
        title="Figure 4 (measured) — paper: best sig 19%, weakest 1.64%",
    )
    record("figure4_cumulative_tpr", table)

    individual = [r["individual_tpr"] for r in rows]
    cumulative = [r["cumulative_tpr"] for r in rows]
    emit(BenchResult(
        bench="figure4_cumulative_tpr",
        kind="figure",
        seed=2012,
        metrics={
            "signatures": len(rows),
            "top_marginal": round(float(rows[0]["marginal"]), 6),
            "tail_marginal": round(float(rows[-1]["marginal"]), 6),
            "set_tpr": round(float(cumulative[-1]), 6),
        },
        data={"rows": rows},
        corpus=context_corpus,
    ))

    assert len(rows) == len(bench_context.result.signature_set)
    # Ordered best-first and monotone cumulative.
    assert individual == sorted(individual, reverse=True)
    assert all(b >= a - 1e-12 for a, b in zip(cumulative, cumulative[1:]))
    # Marginal contributions decay (the paper's concave curve).
    assert rows[0]["marginal"] >= rows[-1]["marginal"]
