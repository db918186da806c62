"""Load-generator harness: replay scanner + benign traffic at a gateway.

The paper's deployment argument is empirical — signatures must hold up
under a production request stream (Section III-C).  The harness builds a
deterministic mixed trace (SQLmap and Vega scans of the vulnerable
webapp interleaved with benign portal traffic), replays it over many
concurrent pipelined connections at an in-process gateway or a
supervised fleet, and reports sustained throughput, shed rate,
client-observed latency percentiles, SLO attainment, and — via
:mod:`repro.eval.serving` — alert parity with the offline engine.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.eval.serving import (
    ParityReport,
    offline_detections,
    parity_of_responses,
)
from repro.http.request import HttpRequest
from repro.http.traffic import Trace
from repro.ids.engine import Detector
from repro.serve.gateway import DetectionGateway, GatewayConfig
from repro.serve.protocol import (
    decode_response,
    encode_framed_request,
    encode_line,
)
from repro.serve.store import SignatureStore
from repro.serve.supervisor import FleetConfig, FleetSupervisor
from repro.surfaces import InjectionSurface, score_request

__all__ = [
    "LoadReport",
    "build_load_trace",
    "format_report",
    "replay",
    "run_loadgen",
]


def build_load_trace(
    *,
    seed: int = 7,
    n_benign: int = 800,
    n_vulnerabilities: int = 12,
    name: str = "loadgen-mix",
) -> Trace:
    """A deterministic attack/benign mix for replay.

    SQLmap and Vega scans of a small vulnerable webapp shuffled together
    with benign portal traffic — the arrival order a perimeter IDS sees,
    not a tidy attacks-then-benign block.
    """
    from repro.corpus.benign import BenignTrafficGenerator
    from repro.corpus.webapp import VulnerableWebApp
    from repro.scanners import SqlmapSimulator, VegaSimulator

    app = VulnerableWebApp(seed=seed, n_vulnerabilities=n_vulnerabilities)
    requests = (
        SqlmapSimulator(app, seed=seed + 1).scan().requests
        + VegaSimulator(app, seed=seed + 2).scan().requests
        + BenignTrafficGenerator(seed=seed + 3).trace(n_benign).requests
    )
    order = np.random.default_rng(seed).permutation(len(requests))
    return Trace(name=name, requests=[requests[i] for i in order])


@dataclass
class LoadReport:
    """Everything one replay measured.

    Attributes:
        detector: detector name on the serving side.
        shards: fleet shard count; ``None`` for the in-process gateway.
        queue_bound: admission queue capacity (per shard on a fleet).
        policy: backpressure policy (per shard on a fleet).
        offered_rps: open-loop offered rate (None for closed-loop runs).
        requests: items offered.
        completed: items answered with a verdict.
        shed: items refused by admission control.
        errors: undecodable or error responses.
        alerts: verdicts that alerted.
        duration_s: first send to last response.
        throughput_rps: answered (verdict, shed or error) responses per
            second.
        slo_ms: the latency objective judged against.
        slo_attainment: fraction of *offered* items answered with a
            verdict within ``slo_ms`` — a shed or missing response is an
            SLO miss, so attainment cannot be gamed by shedding.
        latency_ms: client-observed percentiles (p50/p95/p99/mean/max)
            over serviced responses only.
        per_shard: ``{shard_id: {"inspected": n, "shed": n, ...}}``
            pulled from the supervisor after the replay — the kernel's
            connection balancing made visible; empty for the in-process
            gateway.
        parity: diff against the offline engine (None when skipped).
    """

    detector: str
    shards: int | None
    queue_bound: int
    policy: str
    offered_rps: float | None
    requests: int
    completed: int
    shed: int
    errors: int
    alerts: int
    duration_s: float
    throughput_rps: float
    slo_ms: float
    slo_attainment: float
    latency_ms: dict[str, float] = field(default_factory=dict)
    per_shard: dict[str, dict] = field(default_factory=dict)
    parity: ParityReport | None = None

    @property
    def shed_rate(self) -> float:
        """Fraction of offered items refused."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def serviced_rps(self) -> float:
        """Verdict-carrying responses per second."""
        return self.completed / self.duration_s if self.duration_s else 0.0


async def replay(
    host: str,
    port: int,
    wires: list[bytes],
    *,
    connections: int = 8,
    window: int = 32,
    rate: float | None = None,
) -> tuple[list[dict | None], np.ndarray, float]:
    """Send ``wires`` and return (responses, latencies_s, duration_s).

    Framing is the caller's: each wire is one encoded request, from
    :func:`~repro.serve.protocol.encode_line` (line protocol) or
    :func:`~repro.serve.protocol.encode_framed_request` (``REPRO-FRAME/2``).
    Wires are dealt round-robin over ``connections`` connections, each
    answered in request order.

    Pacing is ``rate``.  With ``None`` the loop is closed: each
    connection keeps up to ``window`` requests in flight, so the replay
    slows down when the server does and measures *capacity*.  With a
    rate the loop is open and models independent clients: wire ``i`` is
    due at ``t0 + i/rate`` whether or not earlier responses arrived —
    the only way to observe shedding and queueing delay at offered
    loads above capacity — and its latency counts from that due
    instant, so a stall in this generator is charged to the requests
    queued behind it instead of vanishing.

    ``responses[i]`` stays None (and ``latencies[i]`` 0) if the
    connection died before answering.  Response lines are decoded after
    the run so client CPU spent on JSON never distorts the pacing.
    ``duration_s`` runs from the first send to the last response.
    """
    if rate is not None and rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t0 = time.perf_counter()
    sent = np.zeros(len(wires), dtype=np.float64)
    received = np.zeros(len(wires), dtype=np.float64)
    lines: list[bytes | None] = [None] * len(wires)

    async def drive(lane: range) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        inflight = asyncio.Semaphore(max(1, window))

        async def collect() -> None:
            try:
                for index in lane:
                    line = await reader.readline()
                    if not line:
                        return
                    received[index] = time.perf_counter()
                    lines[index] = line
                    inflight.release()
            finally:
                # Unblock the sender even if the server hung up early; its
                # writes will then fail fast instead of deadlocking.
                for _ in lane:
                    inflight.release()

        collector = asyncio.get_running_loop().create_task(collect())
        try:
            for index in lane:
                if rate is None:
                    await inflight.acquire()
                    sent[index] = time.perf_counter()
                else:
                    sent[index] = t0 + index / rate
                    delay = sent[index] - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                if collector.done():
                    break
                writer.write(wires[index])
                await writer.drain()
            await collector
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            collector.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    lanes = max(1, connections)
    await asyncio.gather(*(
        drive(range(lane, len(wires), lanes))
        for lane in range(min(lanes, len(wires)))
    ))
    answered = received > 0
    latencies = np.where(answered, received - sent, 0.0)
    duration = (
        float(received.max() - sent[sent > 0].min())
        if answered.any() else 0.0
    )
    return [_decode(line) for line in lines], latencies, duration


def _decode(line: bytes | None) -> dict | None:
    if line is None:
        return None
    try:
        return decode_response(line)
    except ValueError:
        return {"error": "undecodable response"}


def _percentiles_ms(latencies: np.ndarray) -> dict[str, float]:
    if latencies.size == 0:
        return {k: 0.0 for k in
                ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")}
    return {
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
        "max_ms": float(latencies.max() * 1e3),
    }


async def run_loadgen(
    detector: Detector,
    items: list[str] | list[HttpRequest],
    *,
    config: GatewayConfig,
    shards: int | None = None,
    surfaces: tuple[InjectionSurface, ...] | None = None,
    connections: int = 8,
    window: int = 32,
    rate: float | None = None,
    slo_ms: float = 50.0,
    check_parity: bool = True,
) -> LoadReport:
    """Serve ``detector``, replay ``items`` at it, and summarize.

    Without ``shards`` an in-process gateway serves ``config``; with it
    a supervised fleet of that many shards serves it, and the per-shard
    counters are pulled from the supervisor's merged telemetry *before*
    shutdown.  Without ``surfaces`` the items are payload
    strings on the line protocol; with it they are whole requests in
    ``REPRO-FRAME/2`` frames carrying that selection.  ``connections``,
    ``window`` and ``rate`` are :func:`replay`'s.

    With ``check_parity`` every response is diffed against the offline
    detector — ``detector.inspect`` per payload, or the surface-aware
    fold (:func:`repro.surfaces.score_request` with the same selection)
    per framed request, so a wire/extraction divergence between gateway
    and library fails the check even when both "look alerted".
    """
    if surfaces is None:
        wires = [encode_line(payload) for payload in items]
    else:
        wires = [encode_framed_request(r, surfaces) for r in items]
    if shards is None:
        server = DetectionGateway(SignatureStore(detector), config)
    else:
        server = FleetSupervisor(
            detector, FleetConfig(shards=shards, gateway=config)
        )
    host, port = await server.start()
    per_shard: dict[str, dict] = {}
    try:
        responses, latencies, duration = await replay(
            host, port, wires,
            connections=connections, window=window, rate=rate,
        )
        if shards is not None:
            stats = await server.stats()
            per_shard = {
                shard_id: dict(info["counters"])
                for shard_id, info in stats["shards"].items()
            }
    finally:
        await server.stop()
    parity = None
    if check_parity:
        if surfaces is None:
            offline = offline_detections(detector, items)
        else:
            offline = [
                score_request(detector.inspect, request, surfaces)
                for request in items
            ]
        parity = parity_of_responses(offline, responses)
    serviced = np.array([
        r is not None and not r.get("shed") and "error" not in r
        for r in responses
    ], dtype=bool)
    completed = int(serviced.sum())
    within_slo = serviced & (latencies * 1e3 <= slo_ms)
    answered = sum(1 for r in responses if r is not None)
    shed = sum(1 for r in responses if r is not None and r.get("shed"))
    return LoadReport(
        detector=detector.name,
        shards=shards,
        queue_bound=config.queue_bound,
        policy=config.policy.value,
        offered_rps=rate,
        requests=len(items),
        completed=completed,
        shed=shed,
        errors=answered - shed - completed,
        alerts=sum(
            1 for r in responses if r is not None and r.get("alert")
        ),
        duration_s=duration,
        throughput_rps=answered / duration if duration > 0 else 0.0,
        slo_ms=slo_ms,
        slo_attainment=(
            int(within_slo.sum()) / len(items) if items else 0.0
        ),
        latency_ms=_percentiles_ms(latencies[serviced]),
        per_shard=per_shard,
        parity=parity,
    )


def format_report(report: LoadReport) -> str:
    """Multi-line human-readable rendering of one replay."""
    target = (
        f"shards={report.shards} queue={report.queue_bound}/shard"
        if report.shards is not None
        else f"in-process gateway queue={report.queue_bound}"
    )
    pacing = (
        f"offered={report.offered_rps:,.0f} req/s (open loop)"
        if report.offered_rps is not None
        else "closed loop"
    )
    lines = [
        f"detector={report.detector} {target} policy={report.policy} "
        f"{pacing}",
        f"  requests={report.requests} completed={report.completed} "
        f"shed={report.shed} ({report.shed_rate:.1%}) "
        f"errors={report.errors} alerts={report.alerts}",
        f"  duration={report.duration_s:.3f}s "
        f"throughput={report.throughput_rps:,.0f} req/s "
        f"(serviced {report.serviced_rps:,.0f}/s)",
        f"  slo<= {report.slo_ms:g}ms attainment="
        f"{report.slo_attainment:.1%}",
        "  latency p50={p50_ms:.3f}ms p95={p95_ms:.3f}ms "
        "p99={p99_ms:.3f}ms mean={mean_ms:.3f}ms max={max_ms:.3f}ms"
        .format(**report.latency_ms),
    ]
    for shard_id in sorted(report.per_shard):
        counters = report.per_shard[shard_id]
        lines.append(
            f"  shard {shard_id}: inspected={counters.get('inspected', 0)} "
            f"alerted={counters.get('alerted', 0)} "
            f"shed={counters.get('shed', 0)} "
            f"connections={counters.get('connections', 0)}"
        )
    if report.parity is not None:
        lines.append(f"  {report.parity.summary()}")
    return "\n".join(lines)
