"""Experiment 4 — performance evaluation.

Paper: pSigene's per-request processing time is 390/995/1950 µs
(min/avg/max) on a 700 MHz machine — a slowdown of ~17× versus ModSec and
~11× versus Bro, attributed to the many ``count_all()`` invocations; the
authors argue the <2 ms worst case keeps matching off the critical path.

Absolute numbers here reflect this machine; the asserted shape is the
ordering and the roughly-order-of-magnitude slowdown.
"""

from benchlib import BenchResult
from repro.eval import experiment4_performance, format_table

#: The slowdown is in the "several-fold to order-of-magnitude" band, and
#: the worst case stays in the paper's "not a bottleneck" regime (< 20 ms
#: even on a shared CI machine).  Every bound binds a measured time.
FLOORS = {
    "exp4_performance": (
        ("slowdown_vs_modsec", ">", 1.5),
        ("slowdown_vs_modsec", "<", 100.0),
        ("slowdown_vs_bro", ">", 1.5),
        ("psigene_max_us", "<", 20_000.0),
    ),
}


def test_experiment4(benchmark, bench_context, record, emit, context_corpus):
    rows = benchmark.pedantic(
        experiment4_performance, args=(bench_context,),
        kwargs={"sample_requests": 1200}, rounds=1, iterations=1,
    )
    by_name = {r["detector"]: r for r in rows}
    psigene = by_name["psigene"]
    modsec = by_name["modsecurity"]
    bro = by_name["bro"]
    table = format_table(
        ["DETECTOR", "MIN µs", "AVG µs", "MAX µs", "pSigene SLOWDOWN"],
        [
            [r["detector"], r["min_us"], r["avg_us"], r["max_us"],
             f"{psigene['avg_us'] / r['avg_us']:.1f}x"]
            for r in rows
        ],
        title=(
            "Experiment 4 (measured) — paper: pSigene 390/995/1950 µs; "
            "17x vs ModSec, 11x vs Bro"
        ),
    )
    record("exp4_performance", table)

    emit(BenchResult(
        bench="exp4_performance",
        kind="experiment",
        seed=2012,
        metrics={
            "psigene_min_us": round(float(psigene["min_us"]), 3),
            "psigene_avg_us": round(float(psigene["avg_us"]), 3),
            "psigene_max_us": round(float(psigene["max_us"]), 3),
            "modsec_avg_us": round(float(modsec["avg_us"]), 3),
            "bro_avg_us": round(float(bro["avg_us"]), 3),
            "slowdown_vs_modsec": round(
                float(psigene["avg_us"] / modsec["avg_us"]), 3
            ),
            "slowdown_vs_bro": round(
                float(psigene["avg_us"] / bro["avg_us"]), 3
            ),
        },
        data={"rows": rows},
        corpus=context_corpus,
    ))

    # pSigene is the slowest detector (many count_all invocations).
    assert psigene["avg_us"] > modsec["avg_us"]
    assert psigene["avg_us"] > bro["avg_us"]
    assert psigene["avg_us"] / bro["avg_us"] < 100


def test_count_all_throughput(benchmark, bench_context):
    """Micro-benchmark of the hot function: one signature evaluation."""
    signature = bench_context.result.signature_set[0]
    payload = bench_context.pipeline.normalizer(
        "id=1' union select 1,2,concat(database(),char(58)),4-- -"
    )
    probability = benchmark(signature.probability, payload)
    assert 0.0 <= probability <= 1.0
