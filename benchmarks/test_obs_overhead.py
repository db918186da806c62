"""Observability overhead — instrumented vs no-op registry.

Acceptance bar for the observability layer: full instrumentation
(registry counters + latency histogram fed on every request) may cost at
most 5% on ``SignatureEngine.run`` versus the same engine reporting into
a :class:`~repro.obs.registry.NullRegistry`.  Both arms run the identical
code path — telemetry attached, timers on — so the measured delta is
exactly the bookkeeping the real registry performs.
"""

import time

from benchlib import BenchResult
from repro.eval import format_table
from repro.http import Trace
from repro.ids import PSigeneDetector, SignatureEngine
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.serve.telemetry import Telemetry

REPEATS = 5
REQUESTS = 600
#: The acceptance bar: instrumentation costs at most 5% of the measured
#: engine wall time; the per-request ceiling (100 ms) is a sanity bound.
FLOORS = {
    "obs_overhead": (
        ("overhead_fraction", "<=", 0.05),
        ("per_request_us", "<=", 100_000.0),
    ),
}


def _min_wall_s_interleaved(
    first: SignatureEngine, second: SignatureEngine, trace: Trace
) -> tuple[float, float]:
    """Best-of-N wall time per engine, arms alternated within each round.

    Interleaving matters: measuring one arm's five repeats as a block and
    then the other's lets clock-frequency drift and cache state masquerade
    as instrumentation overhead (observed at >10% on a sequential layout
    for a real delta under 1%).
    """
    bests = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for slot, engine in enumerate((first, second)):
            start = time.perf_counter()
            engine.run(trace)
            bests[slot] = min(bests[slot], time.perf_counter() - start)
    return bests[0], bests[1]


def test_instrumentation_overhead_under_5_percent(bench_context, record,
                                                  emit):
    signature_set = bench_context.result.signature_set
    requests = bench_context.datasets.sqlmap.requests[:REQUESTS]
    trace = Trace(name="overhead-bench", requests=list(requests))

    instrumented = SignatureEngine(
        PSigeneDetector(signature_set),
        telemetry=Telemetry(MetricsRegistry()),
    )
    null = SignatureEngine(
        PSigeneDetector(signature_set),
        telemetry=Telemetry(NullRegistry()),
    )

    # Warm both arms (regex caches, branch predictors) before timing.
    instrumented.run(trace)
    null.run(trace)

    instrumented_s, null_s = _min_wall_s_interleaved(
        instrumented, null, trace
    )
    overhead = instrumented_s / null_s - 1.0

    per_request_us = instrumented_s / len(trace) * 1e6
    table = format_table(
        ["ARM", "WALL s", "PER-REQ µs"],
        [
            ["MetricsRegistry", f"{instrumented_s:.4f}",
             f"{instrumented_s / len(trace) * 1e6:.1f}"],
            ["NullRegistry", f"{null_s:.4f}",
             f"{null_s / len(trace) * 1e6:.1f}"],
            ["overhead", f"{overhead * 100:+.2f}%", ""],
        ],
        title=(
            f"Observability overhead on SignatureEngine.run "
            f"({len(trace)} requests, best of {REPEATS})"
        ),
    )
    record("obs_overhead", table)

    # emit writes the artifact before it checks the floors, so a
    # noisy-machine failure still records the measurement.
    emit(BenchResult(
        bench="obs_overhead",
        kind="perf",
        seed=2012,
        metrics={
            "requests": len(trace),
            "repeats": REPEATS,
            "instrumented_wall_s": round(instrumented_s, 6),
            "null_wall_s": round(null_s, 6),
            "per_request_us": round(per_request_us, 3),
            "overhead_fraction": round(overhead, 6),
        },
    ))

    assert per_request_us > 0.0

    # The instrumented arm really did count: one inc per request per pass.
    inspected = instrumented.telemetry.counter("inspected")
    assert inspected == (REPEATS + 1) * len(trace)
