"""Fleet serving bench: shard scaling, overload shedding, parity.

Replays the deterministic scanner+benign trace through live fleets of
1, 2, and 4 shards (closed-loop, ``block`` policy — capacity), then
drives a 2-shard fleet past capacity open-loop (``shed`` policy, tight
queues — overload behaviour).  Parity with the offline engine is
asserted on every serviced response.

Scaling methodology (same as the exp4 models in ``test_exp4_parallel``):
the bench host has 2 vCPUs (``nproc``) and the closed-loop load generator
runs on it too, in this process, so an N-shard fleet time-slices the same
CPUs and the *measured* aggregate stays near single-shard capacity.  What the
measurement does expose is the fleet's coordination overhead — the
aggregate it retains when the same core is divided N ways
(``efficiency = C_N / C_1``).  Modeled N-core throughput is
``N x C_1 x min(1, efficiency)``, i.e. perfect port-sharding scaling
discounted by the *measured* multi-process overhead.  The acceptance
bar (modeled speedup >= 2.5x at 4 shards) fails if shard coordination
eats more than 37.5% of aggregate capacity.

Saved to ``results/serve_fleet.txt`` and the machine-readable baseline
``results/BENCH_serving.json`` guarded by ``scripts/ci_bench_guard.py``.
"""

import asyncio

from repro.bench import BenchResult, corpus_digest
from repro.conformance import train_default_detector
from repro.serve import GatewayConfig, build_load_trace, run_loadgen

SHARD_COUNTS = (1, 2, 4)
QUEUE_BOUND = 256
CONNECTIONS = 8
WINDOW = 16
PRESSURE_QUEUE_BOUND = 8
SLO_MS = 50.0
MIN_MODELED_SPEEDUP_AT_4 = 2.5


def test_serve_fleet_scaling(record, emit):
    detector = train_default_detector(2012)
    trace = build_load_trace(seed=7, n_benign=2000, n_vulnerabilities=12)
    payloads = trace.payloads()

    capacity = {}
    for shards in SHARD_COUNTS:
        report = asyncio.run(run_loadgen(
            detector,
            payloads,
            config=GatewayConfig(queue_bound=QUEUE_BOUND, policy="block"),
            shards=shards,
            connections=CONNECTIONS,
            window=WINDOW,
            slo_ms=SLO_MS,
        ))
        # Closed-loop block policy: every request serviced, bit parity.
        assert report.completed == report.requests
        assert report.shed == 0 and report.errors == 0
        assert report.parity_ok
        capacity[shards] = report

    c1 = capacity[1].throughput_rps
    scaling = []
    for shards in SHARD_COUNTS:
        measured = capacity[shards].throughput_rps
        efficiency = min(1.0, measured / c1)
        modeled = shards * c1 * efficiency
        scaling.append({
            "shards": shards,
            "measured_rps": round(measured, 1),
            "efficiency": round(efficiency, 3),
            "modeled_rps": round(modeled, 1),
            "modeled_speedup": round(modeled / c1, 2),
            "p50_ms": round(capacity[shards].latency_ms["p50_ms"], 3),
            "p95_ms": round(capacity[shards].latency_ms["p95_ms"], 3),
            "p99_ms": round(capacity[shards].latency_ms["p99_ms"], 3),
        })

    # Overload: offer 2x single-shard capacity to a 2-shard fleet with
    # tight per-shard queues; it must shed, not collapse.
    pressure = asyncio.run(run_loadgen(
        detector,
        payloads,
        config=GatewayConfig(queue_bound=PRESSURE_QUEUE_BOUND, policy="shed"),
        shards=2,
        connections=CONNECTIONS,
        rate=2.0 * c1,
        slo_ms=SLO_MS,
    ))
    assert pressure.completed + pressure.shed + pressure.errors == (
        pressure.requests
    )
    assert pressure.errors == 0
    assert pressure.parity_ok

    header = (
        f"{'shards':>6} {'meas req/s':>11} {'eff':>6} "
        f"{'model req/s':>12} {'speedup':>8} {'p50ms':>7} "
        f"{'p95ms':>7} {'p99ms':>7}"
    )
    lines = [
        f"Fleet scaling ({detector.name}, {len(payloads)} payloads, "
        f"closed-loop block, queue {QUEUE_BOUND}/shard; "
        f"modeled = N x C1 x efficiency)",
        header,
        "-" * len(header),
    ]
    for row in scaling:
        lines.append(
            f"{row['shards']:>6} {row['measured_rps']:>11,.0f} "
            f"{row['efficiency']:>6.2f} {row['modeled_rps']:>12,.0f} "
            f"{row['modeled_speedup']:>7.2f}x {row['p50_ms']:>7.3f} "
            f"{row['p95_ms']:>7.3f} {row['p99_ms']:>7.3f}"
        )
    lines += [
        "",
        f"Overload (2 shards, shed policy, queue "
        f"{PRESSURE_QUEUE_BOUND}/shard, offered {pressure.offered_rps:,.0f} "
        f"req/s = 2 x C1):",
        f"  serviced {pressure.serviced_rps:,.0f} req/s, "
        f"shed {100 * pressure.shed_rate:.1f}%, "
        f"SLO({SLO_MS:.0f}ms) {100 * pressure.slo_attainment:.1f}%, "
        f"p99 {pressure.latency_ms['p99_ms']:.3f} ms, parity OK",
    ]
    record("serve_fleet", "\n".join(lines))

    emit(BenchResult(
        bench="serving",
        kind="perf",
        seed=2012,
        metrics={
            "requests": len(payloads),
            "queue_bound": QUEUE_BOUND,
            "c1_rps": round(c1, 1),
            "modeled_speedup_at_4": scaling[-1]["modeled_speedup"],
            "parity_ok": True,
        },
        data={
            "detector": detector.name,
            "trace_seed": 7,
            "scaling": scaling,
            "pressure": {
                "shards": 2,
                "queue_bound": PRESSURE_QUEUE_BOUND,
                "offered_rps": round(pressure.offered_rps, 1),
                "serviced_rps": round(pressure.serviced_rps, 1),
                "shed_rate": round(pressure.shed_rate, 4),
                "slo_ms": SLO_MS,
                "slo_attainment": round(pressure.slo_attainment, 4),
                "p99_ms": round(pressure.latency_ms["p99_ms"], 3),
            },
        },
        corpus={"loadgen_trace": corpus_digest(payloads)},
    ))

    # The ISSUE's bar: the modeled fleet reaches >= 2.5x single-shard
    # throughput at 4 shards on the sqlmap+benign replay trace.
    assert scaling[-1]["shards"] == 4
    assert scaling[-1]["modeled_speedup"] >= MIN_MODELED_SPEEDUP_AT_4
