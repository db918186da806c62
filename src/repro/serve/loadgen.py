"""Load-generator harness: replay scanner + benign traffic at a gateway.

The paper's deployment argument is empirical — signatures must hold up
under a production request stream (Section III-C).  The harness builds a
deterministic mixed trace (SQLmap and Vega scans of the vulnerable
webapp interleaved with benign portal traffic), replays it over many
concurrent pipelined connections at an in-process gateway or a
supervised fleet from one ``selectors`` loop in the calling thread (the
server's model), and reports sustained throughput, shed rate,
client-observed latency percentiles, SLO attainment, and — through
the one verdict referee, :func:`~repro.conformance.verdict.diff_verdicts`
— parity with the offline detector.
"""

from __future__ import annotations

import dataclasses
import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from repro.conformance.verdict import (
    Divergence,
    Verdict,
    carries_verdict,
    diff_verdicts,
    serial_verdicts,
)
from repro.http.request import HttpRequest
from repro.http.traffic import Trace
from repro.ids.engine import Detector
from repro.serve.gateway import RECV_BYTES, DetectionGateway, GatewayConfig
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
        missing: items that got no answer at all.
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
        divergences: the answered verdicts' disagreements with the
            offline detector, each indexed by its item's position in
            the trace (None when the check is skipped).
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
    missing: int
    alerts: int
    duration_s: float
    throughput_rps: float
    slo_ms: float
    slo_attainment: float
    latency_ms: dict[str, float] = field(default_factory=dict)
    per_shard: dict[str, dict] = field(default_factory=dict)
    divergences: list[Divergence] | None = None

    @property
    def parity_ok(self) -> bool:
        """True when parity was checked and every item that was not shed
        got a verdict equal to the offline detector's."""
        return self.divergences is not None and not (
            self.divergences or self.errors or self.missing
        )

    @property
    def shed_rate(self) -> float:
        """Fraction of offered items refused."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def serviced_rps(self) -> float:
        """Verdict-carrying responses per second."""
        return self.completed / self.duration_s if self.duration_s else 0.0


_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Lane:
    """One replay connection: the wires dealt to it and its place in
    them."""

    __slots__ = ("sock", "indices", "queued", "answered", "out", "buffer",
                 "events")

    def __init__(self, sock: socket.socket, indices: range) -> None:
        self.sock = sock
        self.indices = indices
        # Wires handed to ``out`` so far, and answers read so far.
        self.queued = 0
        self.answered = 0
        self.out = bytearray()
        # The start of an answer whose newline has not arrived.
        self.buffer = b""
        # What the selector watches it for (0: closed).
        self.events = _READ


def replay(
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
    answered in request order, and one ``selectors`` loop drives them
    all in the calling thread.

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
    window = max(1, window)
    lanes = max(1, connections)
    selector = selectors.DefaultSelector()
    live: list[_Lane] = []

    def close(lane: _Lane) -> None:
        selector.unregister(lane.sock)
        lane.sock.close()
        lane.events = 0
        live.remove(lane)

    def flush(lane: _Lane) -> None:
        try:
            del lane.out[:lane.sock.send(lane.out)]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            # The server is gone: send nothing more, and read what it
            # answered until the connection ends.
            lane.queued = len(lane.indices)
            lane.out.clear()
        events = _READ | _WRITE if lane.out else _READ
        if events != lane.events:
            selector.modify(lane.sock, events, lane)
            lane.events = events

    def receive(lane: _Lane) -> None:
        try:
            data = lane.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:  # the server hung up: the rest stay unanswered
            close(lane)
            return
        now = time.perf_counter()
        *answers, lane.buffer = (lane.buffer + data).split(b"\n")
        for line in answers[:len(lane.indices) - lane.answered]:
            index = lane.indices[lane.answered]
            lines[index] = line
            received[index] = now
            lane.answered += 1
        if lane.answered == len(lane.indices):
            close(lane)

    try:
        for lane in range(min(lanes, len(wires))):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            live.append(_Lane(sock, range(lane, len(wires), lanes)))
            selector.register(sock, _READ, live[-1])
        while live:
            now = time.perf_counter()
            wake = None
            for lane in live:
                indices = lane.indices
                while lane.queued < len(indices):
                    index = indices[lane.queued]
                    if rate is None:
                        if lane.queued - lane.answered >= window:
                            break
                        due = now
                    else:
                        due = t0 + index / rate
                        if due > now:
                            wake = due if wake is None else min(wake, due)
                            break
                    sent[index] = due
                    lane.out += wires[index]
                    lane.queued += 1
                if lane.out and not lane.events & _WRITE:
                    flush(lane)
            timeout = (
                None if wake is None
                else max(0.0, wake - time.perf_counter())
            )
            for key, events in selector.select(timeout):
                lane = key.data
                if events & _WRITE and lane.events:
                    flush(lane)
                if events & _READ and lane.events:
                    receive(lane)
    finally:
        for lane in live:
            lane.sock.close()
        selector.close()
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


def run_loadgen(
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

    With ``check_parity`` every answered verdict is diffed against the
    offline detector's with :func:`~repro.conformance.verdict.diff_verdicts`
    — ``detector.inspect`` per payload, or the surface-aware fold
    (:func:`repro.surfaces.score_request` with the same selection) per
    framed request, so a wire/extraction divergence between gateway and
    library fails the check even when both "look alerted".  Shed, error
    and missing answers are counted, not diffed.
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
    host, port = server.start()
    per_shard: dict[str, dict] = {}
    try:
        responses, latencies, duration = replay(
            host, port, wires,
            connections=connections, window=window, rate=rate,
        )
        if shards is not None:
            stats = server.stats()
            per_shard = {
                shard_id: dict(info["counters"])
                for shard_id, info in stats["shards"].items()
            }
    finally:
        server.stop()
    serviced = np.array([carries_verdict(r) for r in responses], dtype=bool)
    divergences = None
    if check_parity:
        compared = np.flatnonzero(serviced).tolist()
        if surfaces is None:
            texts = [items[i] for i in compared]
            truth = serial_verdicts(detector, texts)
        else:
            texts = [items[i].flat_payload() for i in compared]
            truth = [
                Verdict.from_detection(
                    score_request(detector.inspect, items[i], surfaces)
                )
                for i in compared
            ]
        served = [Verdict.from_response(responses[i]) for i in compared]
        divergences = [
            dataclasses.replace(d, index=compared[d.index])
            for d in diff_verdicts("offline", truth, "served", served, texts)
        ]
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
        missing=len(items) - answered,
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
        divergences=divergences,
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
    if report.divergences is not None:
        mismatched = len({d.index for d in report.divergences})
        lines.append(
            f"  {'PARITY' if report.parity_ok else 'MISMATCH'}: "
            f"{report.completed} compared, {report.shed} shed, "
            f"{report.errors} errors, {report.missing} missing, "
            f"{mismatched} mismatched"
        )
    return "\n".join(lines)
