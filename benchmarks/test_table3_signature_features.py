"""Table III — the features included in one signature (the paper prints
signature 6: six features, among them ``=``, ``=[-0-9\\%]*``,
``<=>|r?like|sounds\\s+like|regex``, ``([^a-zA-Z&]+)?&|exists``, and
``\\)?;``) together with its trained Θ (Section II-D prints
Θ₆ᵀ = −3.761054 + 0.262131·f25 + ...).
"""

from benchlib import BenchResult
from repro.eval import format_table, table3_signature_features

#: A signature is a small feature subset with a full, trained Θ vector
#: (intercept + one weight per feature), exactly the paper's form.
FLOORS = {
    "table3_signature_features": (
        ("theta_consistent", "==", True),
        ("n_features", ">=", 1),
        ("n_features", "<=", 40),
    ),
}


def test_table3(benchmark, bench_context, record, emit):
    # The paper picks bicluster 6; we print the mid-sized signature of the
    # measured set (paper signature 6 had 6 features — small).
    signatures = sorted(
        bench_context.result.signature_set,
        key=lambda s: s.n_features,
    )
    target = signatures[len(signatures) // 2]
    result = benchmark.pedantic(
        table3_signature_features,
        args=(bench_context,),
        kwargs={"bicluster_index": target.bicluster_index},
        rounds=1, iterations=1,
    )
    table = format_table(
        ["FEATURE NUMBER", "FEATURE (Regular Expression)"],
        [[f["number"], f["pattern"]] for f in result["features"]],
        title=(
            f"Table III analogue: features of signature "
            f"{result['bicluster']}\n{result['describe'][:200]}"
        ),
    )
    record("table3_signature_features", table)

    emit(BenchResult(
        bench="table3_signature_features",
        kind="table",
        seed=2012,
        metrics={
            "bicluster": int(result["bicluster"]),
            "n_features": len(result["features"]),
            "theta_len": len(result["theta"]),
            "theta_consistent": (
                len(result["theta"]) == len(result["features"]) + 1
                and result["theta"][0] != 0.0
            ),
            "intercept": round(float(result["theta"][0]), 6),
        },
        data={
            "features": result["features"],
            "theta": [round(float(t), 6) for t in result["theta"]],
        },
    ))
