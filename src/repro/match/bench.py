"""Fused-versus-legacy serial matching benchmark.

One signature set, one payload mix, two engines: the fused single-pass
path and the per-signature reference loop (forced via
:func:`repro.match.fused_disabled`).  The engines' whole-trace passes are
interleaved in pairs, alternating which goes first, so contention on a
shared host lands on both sides of a pair; the speedup is the median of
the per-pair ratios, and aggregate µs/request the best pass of each
engine.  The percentile columns come from one instrumented per-request
pass with the measured ``perf_counter`` overhead subtracted, the same
correction the Experiment 4 latency models in
``benchmarks/test_exp4_parallel.py`` use.

The result serializes to the machine-readable
``benchmarks/results/BENCH_matching.json`` artifact that CI's
``scripts/ci_bench_guard.py`` compares against the committed baseline —
the first entry of the ROADMAP's bench-trajectory ledger.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.match import fused_disabled


@dataclass(frozen=True)
class FusedMatchBench:
    """One fused-versus-legacy serial matching measurement.

    Attributes:
        requests: payloads per timed pass.
        signatures: signature count of the measured set.
        patterns: distinct feature patterns the fused engine compiled.
        legacy_us_per_request: reference-loop mean µs per request.
        fused_us_per_request: fused-path mean µs per request.
        speedup: median over interleaved pass pairs of the legacy
            pass time over the fused pass time.
        fused_p50_us: median fused per-request latency.
        fused_p95_us: 95th-percentile fused per-request latency.
        identical: every verdict (score bits and fired tuple) matched
            between the two engines.
    """

    requests: int
    signatures: int
    patterns: int
    legacy_us_per_request: float
    fused_us_per_request: float
    speedup: float
    fused_p50_us: float
    fused_p95_us: float
    identical: bool

    def to_bench_result(
        self, *, seed: int = 2012, corpus: dict[str, str] | None = None
    ):
        """The shared-schema :class:`repro.bench.BenchResult`.

        The canonical measured configuration is seeded with 2012 (both
        the bench context and the CI guard's fresh probe), so that is
        the default recorded seed.
        """
        from repro.bench import BenchResult

        return BenchResult(
            bench="matching",
            kind="perf",
            seed=seed,
            metrics={
                "requests": self.requests,
                "signatures": self.signatures,
                "patterns": self.patterns,
                "legacy_us_per_request": round(
                    self.legacy_us_per_request, 3
                ),
                "fused_us_per_request": round(
                    self.fused_us_per_request, 3
                ),
                "speedup": round(self.speedup, 3),
                "fused_p50_us": round(self.fused_p50_us, 3),
                "fused_p95_us": round(self.fused_p95_us, 3),
                "identical": self.identical,
            },
            corpus=corpus or {},
        )

    def to_json(self) -> str:
        """The ``BENCH_matching.json`` artifact body."""
        return self.to_bench_result().to_json()


def _pass_seconds(
    signature_set, normalized: list[str], *, fused: bool
) -> float:
    evaluate = signature_set.evaluate_normalized
    with contextlib.nullcontext() if fused else fused_disabled():
        start = time.perf_counter()
        for payload in normalized:
            evaluate(payload)
        return time.perf_counter() - start


def _perf_counter_pair_seconds(samples: int = 2000) -> float:
    """Median cost of one back-to-back ``perf_counter()`` pair — the
    instrumentation inside every per-request sample."""
    gaps = []
    for _ in range(samples):
        start = time.perf_counter()
        gaps.append(time.perf_counter() - start)
    gaps.sort()
    return gaps[len(gaps) // 2]


def bench_fused_matching(
    signature_set,
    payloads: Sequence[str],
    *,
    pairs: int = 9,
) -> FusedMatchBench:
    """Measure ``evaluate_normalized`` with and without the fused engine.

    Both engines see identical pre-normalized inputs (normalization cost
    is the same fixed prologue either way and is excluded, exactly like
    the exp4 matching bench).  Verdict parity is checked on every
    payload before any timing.  ``pairs`` interleaved pass pairs are
    timed; the engine that goes first alternates from pair to pair.
    """
    normalized = [signature_set.normalizer(p) for p in payloads]
    signature_set.warm()

    fused_verdicts = [
        signature_set.evaluate_normalized(n) for n in normalized
    ]
    with fused_disabled():
        legacy_verdicts = [
            signature_set.evaluate_normalized(n) for n in normalized
        ]
    identical = fused_verdicts == legacy_verdicts

    fused_times, legacy_times = [], []
    for pair in range(pairs):
        # Fused first on even pairs, legacy first on odd ones.
        for fused in (pair % 2 == 0, pair % 2 == 1):
            (fused_times if fused else legacy_times).append(
                _pass_seconds(signature_set, normalized, fused=fused)
            )
    speedup = statistics.median(
        legacy / fused for legacy, fused in zip(legacy_times, fused_times)
    )

    overhead = _perf_counter_pair_seconds()
    samples = []
    evaluate = signature_set.evaluate_normalized
    for payload in normalized:
        start = time.perf_counter()
        evaluate(payload)
        samples.append(
            max(time.perf_counter() - start - overhead, 0.0)
        )
    samples.sort()
    count = len(samples)
    p50 = samples[count // 2] if count else 0.0
    p95 = samples[min(count - 1, int(count * 0.95))] if count else 0.0

    n = max(count, 1)
    fused_us = min(fused_times) / n * 1e6
    legacy_us = min(legacy_times) / n * 1e6
    evaluator = signature_set._fused_evaluator()
    patterns = (
        len(evaluator.matcher.patterns)
        if evaluator is not None and hasattr(evaluator, "matcher")
        else 0
    )
    return FusedMatchBench(
        requests=count,
        signatures=len(signature_set),
        patterns=patterns,
        legacy_us_per_request=legacy_us,
        fused_us_per_request=fused_us,
        speedup=speedup,
        fused_p50_us=p50 * 1e6,
        fused_p95_us=p95 * 1e6,
        identical=identical,
    )
