"""Experiment 4 extension — parallel matching and extraction.

The paper: "the signature matching is completely parallelizable — each
parallel thread can match one signature and this functionality is inbuilt
in Bro (Bro's cluster mode).  But we do not have this obvious performance
optimization implemented yet."  Three latency models answer it here:
signature-axis sharding (Bro's cluster mode, ``exp4_parallel``), and the
request-axis fan-out of :func:`repro.parallel.process_map` behind
``FeatureExtractor.extract_many`` (``exp4_batch_extraction``) and
``run_batch`` (``exp4_batch_matching``).

All three models share one timer-corrected per-item cost sampler
(:func:`_item_costs`, correcting by :func:`benchlib.timer_overhead_s`).  Speedup columns are critical-path models (the
slowest worker's share of the measured per-item costs): the latency a
core-per-worker deployment would exhibit, independent of how many cores
this host has.  Pool wall-clock is reported alongside, unmodeled.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from benchlib import BenchResult, corpus_digest, timer_overhead_s
from repro.corpus.grammar import CorpusGenerator
from repro.eval import format_table
from repro.features import FeatureExtractor
from repro.http import HttpRequest, LABEL_ATTACK, Trace
from repro.ids import PSigeneDetector, SignatureEngine
from repro.parallel import plan_chunks, run_batch

#: Each model's verdicts equal the serial engine's; sharding approaches
#: the critical-path limit (the most expensive single signature bounds
#: the gain); and the batch fan-outs reach 1.5x at 4 workers.  Every
#: speedup bound here binds a model, not a measured wall time.
FLOORS = {
    "exp4_parallel": (
        ("verdict_parity", "==", True),
        ("modeled_speedup_at_max", ">", 1.2),
    ),
    "exp4_batch_extraction": (
        ("identical", "==", True),
        ("modeled_speedup_at_4", ">=", 1.5),
    ),
    "exp4_batch_matching": (
        ("identical", "==", True),
        ("modeled_speedup_at_4", ">=", 1.5),
    ),
}

# -- the timing model ----------------------------------------------------------


def _item_costs(fn, items):
    """``fn`` over *items*: per-item seconds and results.

    Each sample has the timer's own cost subtracted.  Left in, it would
    inflate the serial estimate by one ``perf_counter`` pair per item but
    each worker's share by only its items' worth, flattering every
    speedup.
    """
    overhead = timer_overhead_s()
    costs = np.zeros(len(items))
    results = []
    for index, item in enumerate(items):
        start = time.perf_counter()
        results.append(fn(item))
        costs[index] = max(time.perf_counter() - start - overhead, 0.0)
    return costs, results


def _round_robin(n_chunks, workers):
    """Chunk indices per worker, dealt cyclically — how a pool drains a
    queue of near-uniform tasks."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    assignment = [[] for _ in range(workers)]
    for chunk in range(n_chunks):
        assignment[chunk % workers].append(chunk)
    return assignment


def _lpt_shards(costs, workers):
    """Greedy longest-processing-time assignment of items to workers."""
    order = sorted(range(len(costs)), key=lambda i: -costs[i])
    loads = [0.0] * workers
    shards = [[] for _ in range(workers)]
    for index in order:
        target = int(np.argmin(loads))
        shards[target].append(index)
        loads[target] += costs[index]
    return [sorted(shard) for shard in shards]


# -- request-axis fan-out model ------------------------------------------------


@dataclass
class _FanoutRow:
    """One worker count of a batch fan-out: modeled and measured."""

    workers: int
    n_chunks: int
    serial_us: float
    critical_path_us: float
    modeled_speedup: float
    pool_wall_s: float
    identical: bool


def _fanout_rows(costs, run, same, workers):
    """Model and run each worker count of a ``process_map`` fan-out.

    ``plan_chunks``' chunks are dealt round-robin and the slowest worker's
    summed per-item cost is the critical path; ``run(count)`` is the real
    fan-out (wall clock) and ``same(result)`` its parity check.
    """
    n = len(costs)
    serial = float(costs.sum())
    rows = []
    for count in workers:
        spans = plan_chunks(n, count)
        chunk_costs = [costs[start:stop].sum() for start, stop in spans]
        loads = [
            sum(chunk_costs[c] for c in assigned)
            for assigned in _round_robin(len(spans), count)
        ]
        critical = max(loads) if loads else 0.0
        start = time.perf_counter()
        result = run(count)
        wall = time.perf_counter() - start
        rows.append(_FanoutRow(
            workers=count,
            n_chunks=len(spans),
            serial_us=serial / n * 1e6 if n else 0.0,
            critical_path_us=critical / n * 1e6 if n else 0.0,
            modeled_speedup=serial / critical if critical > 0 else 1.0,
            pool_wall_s=wall,
            identical=bool(same(result)),
        ))
    return rows


# -- signature-axis sharding model (Bro cluster mode) --------------------------


@dataclass
class _ShardRow:
    """One cluster size of the signature-sharding model."""

    workers: int
    shard_sizes: list
    serial_us: float
    critical_path_us: float
    speedup: float


def _cluster_model(signature_set, trace, worker_counts, calibration=50):
    """Shard *signature_set* across simulated cluster workers.

    Each signature's cost over the first *calibration* requests drives an
    LPT shard balance; one measured pass then times every (request,
    signature) match, and each cluster size's critical path is the
    per-request maximum over its shards.  Cluster sizes are capped at the
    signature count (one signature per worker is the paper's limiting
    case).  Returns the rows and the per-request alert flags (the union
    of every shard's verdicts).
    """
    if any(count < 1 for count in worker_counts):
        raise ValueError("need at least one worker")
    signatures = signature_set.signatures
    n_signatures = len(signatures)
    normalized = [signature_set.normalizer(p) for p in trace.payloads()]
    if n_signatures == 0 or not normalized:
        rows = [
            _ShardRow(min(count, max(1, n_signatures)), [], 0.0, 0.0, 1.0)
            for count in worker_counts
        ]
        return rows, np.zeros(len(normalized), dtype=bool)

    sample = normalized[:calibration]
    signature_costs, _ = _item_costs(
        lambda signature: [signature.probability(p) for p in sample],
        signatures,
    )
    pairs = [(payload, signature)
             for payload in normalized for signature in signatures]
    pair_costs, probabilities = _item_costs(
        lambda pair: pair[1].probability(pair[0]), pairs
    )
    per_signature_us = pair_costs.reshape(len(normalized), n_signatures) * 1e6
    thresholds = np.array([signature.threshold for signature in signatures])
    flags = (
        np.array(probabilities).reshape(len(normalized), n_signatures)
        >= thresholds
    ).any(axis=1)

    serial = float(per_signature_us.sum(axis=1).mean())
    rows = []
    for count in worker_counts:
        shards = _lpt_shards(signature_costs, min(count, n_signatures))
        worker_time = np.zeros((len(normalized), len(shards)))
        for worker, shard in enumerate(shards):
            if shard:
                worker_time[:, worker] = per_signature_us[:, shard].sum(
                    axis=1
                )
        critical = float(worker_time.max(axis=1).mean())
        rows.append(_ShardRow(
            workers=len(shards),
            shard_sizes=[len(shard) for shard in shards],
            serial_us=serial,
            critical_path_us=critical,
            speedup=serial / critical if critical > 0 else 1.0,
        ))
    return rows, flags


# -- benches -------------------------------------------------------------------


def test_cluster_mode_speedup(benchmark, bench_context, record, emit):
    nine, _ = bench_context.psigene_sets()
    sample = Trace(
        name="sqlmap-sample",
        requests=list(bench_context.datasets.sqlmap.requests[:400]),
    )

    def sweep():
        return _cluster_model(nine, sample, (1, 2, 4, len(nine)))

    runs, flags = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["WORKERS", "SERIAL µs", "CRITICAL PATH µs", "SPEEDUP", "SHARDS"],
        [
            [run.workers, f"{run.serial_us:.1f}",
             f"{run.critical_path_us:.1f}", f"{run.speedup:.2f}x",
             str(run.shard_sizes)]
            for run in runs
        ],
        title="Experiment 4 extension: Bro-cluster-mode signature sharding",
    )
    record("exp4_parallel", table)

    # Sharding decides nothing: the union of shard verdicts is the
    # engine's verdict on every request.
    engine_flags = SignatureEngine(PSigeneDetector(nine)).run(
        sample
    ).alert_flags
    parity = flags.tolist() == engine_flags.tolist()
    emit(BenchResult(
        bench="exp4_parallel",
        kind="perf",
        seed=2012,
        metrics={
            "workers_max": int(runs[-1].workers),
            "serial_us": round(float(runs[0].serial_us), 3),
            "critical_path_us_at_max": round(
                float(runs[-1].critical_path_us), 3
            ),
            "modeled_speedup_at_max": round(float(runs[-1].speedup), 3),
            "verdict_parity": bool(parity),
        },
        data={"rows": [
            {
                "workers": int(run.workers),
                "serial_us": round(float(run.serial_us), 3),
                "critical_path_us": round(
                    float(run.critical_path_us), 3
                ),
                "speedup": round(float(run.speedup), 3),
                "shard_sizes": [int(s) for s in run.shard_sizes],
            }
            for run in runs
        ]},
        corpus={"sqlmap_sample": corpus_digest(sample.payloads())},
    ))
    # More workers, more speedup.
    speedups = [run.speedup for run in runs]
    assert speedups[0] <= 1.05
    assert max(speedups) == speedups[-1] or (
        speedups[-1] > 0.9 * max(speedups)
    )


def _batch_bench_result(slug, results, by_workers, corpus):
    """Shared artifact shape for the two batch fan-out benches."""
    return BenchResult(
        bench=slug,
        kind="perf",
        seed=2012,
        metrics={
            "serial_us_per_request": round(
                float(by_workers[1].serial_us), 3
            ),
            "modeled_speedup_at_4": round(
                float(by_workers[4].modeled_speedup), 3
            ),
            "modeled_speedup_at_8": round(
                float(by_workers[8].modeled_speedup), 3
            ),
            "identical": bool(all(r.identical for r in results)),
        },
        data={"rows": [
            {
                "workers": int(r.workers),
                "n_chunks": int(r.n_chunks),
                "serial_us": round(float(r.serial_us), 3),
                "critical_path_us": round(float(r.critical_path_us), 3),
                "modeled_speedup": round(float(r.modeled_speedup), 3),
                "pool_wall_s": round(float(r.pool_wall_s), 4),
            }
            for r in results
        ]},
        corpus=corpus,
    )


def _batch_table(results, title):
    return format_table(
        ["WORKERS", "CHUNKS", "SERIAL µs/req", "CRITICAL µs/req",
         "MODELED SPEEDUP", "POOL WALL s", "IDENTICAL"],
        [
            [r.workers, r.n_chunks, f"{r.serial_us:.1f}",
             f"{r.critical_path_us:.1f}", f"{r.modeled_speedup:.2f}x",
             f"{r.pool_wall_s:.2f}", "yes" if r.identical else "NO"]
            for r in results
        ],
        title=title,
    )


def test_bench_batch_extraction(benchmark, record, emit):
    """Chunked multiprocess feature extraction over a 3k-sample corpus."""
    payloads = [
        s.payload for s in CorpusGenerator(seed=2012).generate(3000)
    ]
    extractor = FeatureExtractor()

    def sweep():
        costs, rows = _item_costs(extractor.extract, payloads)
        serial = np.vstack(rows)
        return _fanout_rows(
            costs,
            lambda count: extractor.extract_many(payloads, workers=count),
            lambda matrix: (
                matrix.counts.shape == serial.shape
                and (matrix.counts == serial).all()
            ),
            (1, 2, 4, 8),
        )

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("exp4_batch_extraction", _batch_table(results, (
        "Experiment 4 extension: batch feature extraction "
        f"({len(payloads)} samples, full catalog)"
    )))
    by_workers = {r.workers: r for r in results}
    emit(_batch_bench_result(
        "exp4_batch_extraction", results, by_workers,
        corpus={"grammar_corpus": corpus_digest(payloads)},
    ))
    # One worker = no fan-out = no modeled gain.
    assert by_workers[1].modeled_speedup <= 1.05


def test_bench_batch_matching(benchmark, bench_context, record, emit):
    """Request-axis fan-out of signature matching (run_batch)."""
    nine, _ = bench_context.psigene_sets()
    requests = list(bench_context.datasets.sqlmap.requests[:600])
    requests += list(bench_context.datasets.benign.requests[:600])
    trace = Trace(name="mixed-sample", requests=requests)
    detector = PSigeneDetector(nine)

    def sweep():
        costs, detections = _item_costs(detector.inspect, trace.payloads())
        serial_flags = np.array([bool(d.alert) for d in detections])
        return _fanout_rows(
            costs,
            lambda count: run_batch(detector, trace, workers=count),
            lambda run: (run.alert_flags == serial_flags).all(),
            (1, 2, 4, 8),
        )

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("exp4_batch_matching", _batch_table(results, (
        "Experiment 4 extension: batched signature matching "
        f"({len(trace)} requests, {len(nine)} signatures)"
    )))
    by_workers = {r.workers: r for r in results}
    emit(_batch_bench_result(
        "exp4_batch_matching", results, by_workers,
        corpus={"mixed_sample": corpus_digest(trace.payloads())},
    ))
    assert by_workers[1].modeled_speedup <= 1.05


# -- model unit tests ----------------------------------------------------------


class TestRoundRobin:
    def test_every_chunk_assigned_once(self):
        assignment = _round_robin(10, 3)
        flat = sorted(i for worker in assignment for i in worker)
        assert flat == list(range(10))

    def test_balanced_within_one(self):
        sizes = [len(worker) for worker in _round_robin(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            _round_robin(5, 0)


class TestLptShards:
    def test_all_items_assigned_exactly_once(self):
        shards = _lpt_shards([3.0, 1.0, 2.0, 5.0, 4.0], 2)
        flattened = sorted(i for shard in shards for i in shard)
        assert flattened == [0, 1, 2, 3, 4]

    def test_loads_balanced(self):
        costs = [5.0, 4.0, 3.0, 3.0, 2.0, 1.0]
        shards = _lpt_shards(costs, 2)
        loads = [sum(costs[i] for i in shard) for shard in shards]
        # LPT guarantee for 2 machines: within 7/6 of optimum (9 here).
        assert max(loads) <= 9 * 7 / 6 + 1e-9

    def test_heaviest_item_isolated_when_possible(self):
        shards = _lpt_shards([100.0, 1.0, 1.0, 1.0], 2)
        assert next(s for s in shards if 0 in s) == [0]

    def test_more_workers_than_items(self):
        shards = _lpt_shards([1.0, 2.0], 5)
        assert len([s for s in shards if s]) == 2

    def test_single_worker_gets_everything(self):
        assert _lpt_shards([1.0, 2.0, 3.0], 1) == [[0, 1, 2]]

    def test_equal_costs_spread_evenly(self):
        shards = _lpt_shards([1.0] * 8, 4)
        assert sorted(len(s) for s in shards) == [2, 2, 2, 2]


@pytest.fixture(scope="module")
def attack_trace():
    payloads = [
        "id=1' union select 1,2,3-- -",
        "q=2' and sleep(5)-- -",
        "u=3' or '1'='1",
        "x=4' and extractvalue(1,concat(0x7e,user()))-- -",
    ] * 10
    return Trace(
        name="t",
        requests=[HttpRequest(query=p, label=LABEL_ATTACK)
                  for p in payloads],
    )


class TestClusterModel:
    def test_verdicts_match_serial_engine(self, bench_context, attack_trace):
        nine, _ = bench_context.psigene_sets()
        serial = SignatureEngine(PSigeneDetector(nine)).run(attack_trace)
        _, flags = _cluster_model(nine, attack_trace, (3,))
        assert flags.tolist() == serial.alert_flags.tolist()

    def test_speedup_with_multiple_workers(self, bench_context, attack_trace):
        nine, _ = bench_context.psigene_sets()
        (run,), _ = _cluster_model(nine, attack_trace, (4,))
        # Critical path must beat serial when signatures spread over
        # several workers (timing noise allows a small slack).
        assert run.speedup > 1.2

    def test_single_worker_no_speedup(self, bench_context, attack_trace):
        nine, _ = bench_context.psigene_sets()
        (run,), _ = _cluster_model(nine, attack_trace, (1,))
        assert run.speedup == pytest.approx(1.0, abs=0.01)

    def test_workers_capped_at_signature_count(
        self, bench_context, attack_trace
    ):
        nine, _ = bench_context.psigene_sets()
        (run,), _ = _cluster_model(nine, attack_trace, (100,))
        assert run.workers == len(nine)
        assert all(size == 1 for size in run.shard_sizes)

    def test_all_signatures_assigned_once(self, bench_context, attack_trace):
        nine, _ = bench_context.psigene_sets()
        (run,), _ = _cluster_model(nine, attack_trace, (3,))
        assert sum(run.shard_sizes) == len(nine)

    def test_invalid_workers_rejected(self, bench_context, attack_trace):
        nine, _ = bench_context.psigene_sets()
        with pytest.raises(ValueError):
            _cluster_model(nine, attack_trace, (0,))

    def test_empty_trace(self, bench_context):
        nine, _ = bench_context.psigene_sets()
        (run,), flags = _cluster_model(nine, Trace(name="empty"), (2,))
        assert flags.size == 0
        assert run.speedup == 1.0
