"""Fused matching versus the per-signature reference loop.

The serial matching baseline the fused engine attacks is the
``WORKERS=1`` row of ``exp4_batch_matching`` (~261 µs/request when the
engine landed): each request walked every signature's every feature with
its own compiled regex.  The fused engine counts each distinct feature
once — ``str.count`` for literals, ``findall`` only when a literal every
match must contain is in the text — into a shared vector that each
signature reads by index, and must produce bit-identical verdicts while
doing it.

One signature set, one payload mix, two engines: the fused path and the
set pinned to the reference loop by ``SignatureSet.reference()``.  The
engines' whole-trace passes are interleaved in pairs, alternating which
goes first, so contention on a shared host lands on both sides of a
pair; the speedup is the median of the per-pair ratios, and aggregate
µs/request the best pass of each engine.  The percentile columns come
from one per-request pass with the timer's own cost
(:func:`benchlib.timer_overhead_s`) subtracted.

Alongside the human-readable table this bench writes
``benchmarks/results/BENCH_matching.json``; ``scripts/ci_bench_guard.py``
re-measures :func:`measure_fused_matching` on the same set and payloads
(:func:`bench_inputs`) and fails the build if the fresh speedup
regresses more than 15% against that committed baseline.
"""

import statistics
import time

from benchlib import BenchResult, corpus_digest, timer_overhead_s
from repro.eval import format_table

#: Bit-exact parity on every payload is non-negotiable, and the fused
#: path must be at least 3x the serial reference loop (measured).
FLOORS = {
    "matching": (
        ("identical", "==", True),
        ("speedup", ">=", 3.0),
    ),
}


def _pass_seconds(signature_set, normalized: list[str]) -> float:
    evaluate = signature_set.evaluate_normalized
    start = time.perf_counter()
    for payload in normalized:
        evaluate(payload)
    return time.perf_counter() - start


def measure_fused_matching(signature_set, payloads, *, pairs=9):
    """Time ``evaluate_normalized`` on the set and on its reference pin.

    Both engines see identical pre-normalized inputs (normalization is
    the same fixed prologue either way and is excluded, as in the exp4
    matching bench).  Verdict parity is checked on every payload before
    any timing.  Returns the ``matching`` :class:`~benchlib.BenchResult`,
    seeded 2012 like the bench context it is measured on.
    """
    normalized = [signature_set.normalizer(p) for p in payloads]
    signature_set.warm()
    reference = signature_set.reference()
    identical = [
        signature_set.evaluate_normalized(n) for n in normalized
    ] == [reference.evaluate_normalized(n) for n in normalized]

    fused_times, legacy_times = [], []
    for pair in range(pairs):
        # Fused first on even pairs, legacy first on odd ones.
        for fused in (pair % 2 == 0, pair % 2 == 1):
            (fused_times if fused else legacy_times).append(
                _pass_seconds(
                    signature_set if fused else reference, normalized
                )
            )
    speedup = statistics.median(
        legacy / fused for legacy, fused in zip(legacy_times, fused_times)
    )

    overhead = timer_overhead_s()
    samples = []
    evaluate = signature_set.evaluate_normalized
    for payload in normalized:
        start = time.perf_counter()
        evaluate(payload)
        samples.append(max(time.perf_counter() - start - overhead, 0.0))
    samples.sort()
    count = len(samples)
    p50 = samples[count // 2] if count else 0.0
    p95 = samples[min(count - 1, int(count * 0.95))] if count else 0.0

    n = max(count, 1)
    evaluator = signature_set._fused_evaluator()
    patterns = (
        len(evaluator.matcher.patterns)
        if evaluator is not None and hasattr(evaluator, "matcher")
        else 0
    )
    return BenchResult(
        bench="matching",
        kind="perf",
        seed=2012,
        metrics={
            "requests": count,
            "signatures": len(signature_set),
            "patterns": patterns,
            "legacy_us_per_request": round(min(legacy_times) / n * 1e6, 3),
            "fused_us_per_request": round(min(fused_times) / n * 1e6, 3),
            "speedup": round(speedup, 3),
            "fused_p50_us": round(p50 * 1e6, 3),
            "fused_p95_us": round(p95 * 1e6, 3),
            "identical": identical,
        },
        corpus={"payloads": corpus_digest(payloads)},
    )


def bench_inputs(context):
    """The bench's signature set and payloads: Experiment 1's 9-set and
    the first 600 SQLmap plus the first 600 benign test requests of
    *context*.  ``scripts/ci_bench_guard.py`` measures on these too."""
    nine, _ = context.psigene_sets()
    requests = list(context.datasets.sqlmap.requests[:600])
    requests += list(context.datasets.benign.requests[:600])
    return nine, [request.flat_payload() for request in requests]


def test_bench_fused_matching(benchmark, bench_context, record, emit):
    result = benchmark.pedantic(
        measure_fused_matching, args=bench_inputs(bench_context),
        rounds=1, iterations=1,
    )
    metrics = result.metrics
    table = format_table(
        ["ENGINE", "µs/req", "P50 µs", "P95 µs", "SPEEDUP", "IDENTICAL"],
        [
            ["legacy", f"{metrics['legacy_us_per_request']:.1f}", "-", "-",
             "1.00x", "-"],
            ["fused", f"{metrics['fused_us_per_request']:.1f}",
             f"{metrics['fused_p50_us']:.1f}",
             f"{metrics['fused_p95_us']:.1f}",
             f"{metrics['speedup']:.2f}x",
             "yes" if metrics["identical"] else "NO"],
        ],
        title=(
            "Fused single-pass matching "
            f"({metrics['requests']} requests, {metrics['signatures']} "
            f"signatures, {metrics['patterns']} distinct patterns)"
        ),
    )
    record("bench_matching", table)
    emit(result)
