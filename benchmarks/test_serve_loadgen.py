"""Gateway load bench: sustained throughput, shed rate, tail latency.

Replays the deterministic loadgen mix (SQLmap + Vega scans interleaved
with benign portal traffic) through an in-process gateway for two
detectors at two admission-queue bounds under the ``shed`` policy.
The contrast is the point: a tight queue sheds aggressively to keep
admitted-request latency flat, a roomy one absorbs the burst and pushes
the tail out instead.  Parity with the offline engine is asserted on
every serviced response.

Saved to ``results/serve_loadgen.txt``.
"""

import asyncio

import pytest

from repro.bench import BenchResult, corpus_digest
from repro.core import PipelineConfig, PSigenePipeline
from repro.ids import PSigeneDetector
from repro.ids.rulesets import build_modsec_ruleset
from repro.serve import GatewayConfig, build_load_trace, run_loadgen

QUEUE_BOUNDS = (8, 256)
CONNECTIONS = 16
WINDOW = 16  # max outstanding = 256: the roomy queue rarely sheds


@pytest.fixture(scope="module")
def detectors():
    result = PSigenePipeline(PipelineConfig(
        seed=2012,
        n_attack_samples=1200,
        n_benign_train=3000,
        max_cluster_rows=800,
    )).run()
    return [
        PSigeneDetector(
            result.signature_set,
            name=f"psigene({len(result.signature_set)} signatures)",
        ),
        build_modsec_ruleset(),
    ]


def test_serve_loadgen(detectors, record, emit):
    trace = build_load_trace(seed=7, n_benign=2000, n_vulnerabilities=12)
    payloads = trace.payloads()
    header = (
        f"{'detector':<24} {'queue':>5} {'policy':>6} {'req/s':>9} "
        f"{'svc/s':>9} {'shed%':>6} {'p50ms':>7} {'p95ms':>7} "
        f"{'p99ms':>7} {'parity':>7}"
    )
    lines = [
        "Gateway load generator (shed policy, "
        f"{CONNECTIONS} connections x window {WINDOW}, "
        f"{len(payloads)} payloads)",
        header,
        "-" * len(header),
    ]
    runs = []
    for detector in detectors:
        for bound in QUEUE_BOUNDS:
            report = asyncio.run(run_loadgen(
                detector,
                payloads,
                config=GatewayConfig(queue_bound=bound, policy="shed"),
                connections=CONNECTIONS,
                window=WINDOW,
            ))
            assert report.parity_ok
            assert report.completed + report.shed == report.requests
            latency = report.latency_ms
            runs.append({
                "detector": report.detector,
                "queue_bound": bound,
                "policy": report.policy,
                "requests": int(report.requests),
                "completed": int(report.completed),
                "shed": int(report.shed),
                "shed_rate": round(float(report.shed_rate), 6),
                "p50_ms": round(float(latency["p50_ms"]), 3),
                "p95_ms": round(float(latency["p95_ms"]), 3),
                "p99_ms": round(float(latency["p99_ms"]), 3),
                "parity_ok": bool(report.parity_ok),
            })
            lines.append(
                f"{report.detector:<24} {bound:>5} {report.policy:>6} "
                f"{report.throughput_rps:>9,.0f} "
                f"{report.serviced_rps:>9,.0f} "
                f"{100 * report.shed_rate:>5.1f}% "
                f"{latency['p50_ms']:>7.3f} {latency['p95_ms']:>7.3f} "
                f"{latency['p99_ms']:>7.3f} "
                f"{'OK' if report.parity_ok else 'FAIL':>7}"
            )
    record("serve_loadgen", "\n".join(lines))

    emit(BenchResult(
        bench="serve_loadgen",
        kind="perf",
        seed=2012,
        metrics={
            "requests": runs[0]["requests"],
            "detectors": len(detectors),
            "queue_bounds": len(QUEUE_BOUNDS),
            "parity_ok": all(r["parity_ok"] for r in runs),
            "tight_queue_shed_rate": runs[0]["shed_rate"],
            "roomy_queue_shed_rate": runs[1]["shed_rate"],
        },
        data={"trace_seed": 7, "runs": runs},
        corpus={"loadgen_trace": corpus_digest(payloads)},
    ))
