"""Fused single-pass matching versus the per-signature reference loop.

The serial matching baseline this PR attacks is the ``WORKERS=1`` row of
``exp4_batch_matching`` (~261 µs/request on the committed run): each
request walked every signature's every feature with its own compiled
regex.  The fused engine makes one pass — token scan, factor gates, and
a shared count vector reduced by sparse gathers — and must produce
bit-identical verdicts while doing it.

Alongside the human-readable table this bench writes
``benchmarks/results/BENCH_matching.json``; CI's
``scripts/ci_bench_guard.py`` fails the build if a fresh measurement
regresses more than 15% against that committed baseline.
"""

import json

from repro.bench import corpus_digest
from repro.eval import format_table
from repro.match import bench_fused_matching


def test_bench_fused_matching(benchmark, bench_context, record, emit):
    nine, _ = bench_context.psigene_sets()
    requests = list(bench_context.datasets.sqlmap.requests[:600])
    requests += list(bench_context.datasets.benign.requests[:600])
    payloads = [request.flat_payload() for request in requests]

    def sweep():
        return bench_fused_matching(nine, payloads)

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["ENGINE", "µs/req", "P50 µs", "P95 µs", "SPEEDUP", "IDENTICAL"],
        [
            ["legacy", f"{result.legacy_us_per_request:.1f}", "-", "-",
             "1.00x", "-"],
            ["fused", f"{result.fused_us_per_request:.1f}",
             f"{result.fused_p50_us:.1f}", f"{result.fused_p95_us:.1f}",
             f"{result.speedup:.2f}x",
             "yes" if result.identical else "NO"],
        ],
        title=(
            "Fused single-pass matching "
            f"({result.requests} requests, {result.signatures} "
            f"signatures, {result.patterns} distinct patterns)"
        ),
    )
    record("bench_matching", table)
    emit(result.to_bench_result(
        seed=2012, corpus={"payloads": corpus_digest(payloads)}
    ))

    # Bit-exact parity on every payload is non-negotiable.
    assert result.identical
    # The artifact CI diffs must round-trip.
    reloaded = json.loads(result.to_json())
    assert reloaded["bench"] == "matching"
    assert reloaded["metrics"]["speedup"] == round(result.speedup, 3)
    # The ISSUE's bar: >= 3x on the serial matching path.
    assert result.speedup >= 3.0
