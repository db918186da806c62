"""The two gateway workloads: ``line-mix`` and ``framed-surfaces``.

A run trains the signature file the server loads, launches ``repro
serve`` on it, then drives several rounds, each an open-loop segment
followed by a closed-loop segment.  After each round one more server is
launched and stopped: ``setup_s`` is the median, over these launches and
the first, of the CPU time the serving process spends from launch to its
first correct answer.
Each metric is computed per round and the median over rounds is
reported: on a shared host a burst of contention then spoils one round,
not the run.  Every response is refereed against ``PSigeneDetector`` on
the same signature file after the phase that produced it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import inputs
from drive import Generator, Phase, ServerProcess, ask
from layers import Spans, freeze_heap, replay_requests, serving_matcher
from results import PER_LAYER, Result

from repro.core import (
    PipelineConfig,
    PSigenePipeline,
    signature_set_from_json,
    signature_set_to_json,
)
from repro.features.definitions import build_catalog
from repro.ids import PSigeneDetector
from repro.match import matcher_for_patterns


@dataclass(frozen=True)
class GatewayPlan:
    """What differs between the two gateway workloads.

    Attributes:
        rate: open-loop Poisson arrival rate (req/s), sized so the server
            uses about a quarter to a third of one core.
        slo_ms: latency limit of ``slo_attainment``.
    """

    rate: float
    slo_ms: float


PLANS = {
    "line-mix": GatewayPlan(rate=500.0, slo_ms=10.0),
    "framed-surfaces": GatewayPlan(rate=300.0, slo_ms=20.0),
}

#: Closed-loop requests in flight per connection (at most).
WINDOW = 32
#: Share of ``--seconds`` given to the open loop; the closed loop has the rest.
OPEN_SHARE = 0.6
ROUNDS = 6
#: Requests replayed in process for the per-layer numbers.
LAYER_REPLAY = 4000

OK, MISSING, SHED, ERROR, WRONG = range(5)
OUTCOMES = ("ok", "missing", "shed", "error", "wrong")


class Referee:
    """Reference verdicts from ``PSigeneDetector`` on the served file."""

    def __init__(self, detector: PSigeneDetector, data: inputs.GatewayInputs):
        self.detector = detector
        self.data = data
        self._memo: dict[bytes, tuple[bool, float, list[int]]] = {}

    def expected(self, index: int) -> tuple[bool, float, list[int]]:
        wire = self.data.wires[index]
        verdict = self._memo.get(wire)
        if verdict is None:
            if self.data.framed:
                detection = self.detector.inspect_request(
                    self.data.requests[index], self.data.surfaces
                )
            else:
                detection = self.detector.inspect(
                    wire[:-1].decode("utf-8", errors="replace")
                )
            verdict = (
                bool(detection.alert),
                float(detection.score),
                [int(s) for s in detection.matched_sids],
            )
            self._memo[wire] = verdict
        return verdict

    def judge(self, index: int, line: bytes) -> tuple[int, bool]:
        """(outcome, alerted) of one response line."""
        if not line:
            return MISSING, False
        try:
            answer = json.loads(line)
        except ValueError:
            return ERROR, False
        if answer.get("shed"):
            return SHED, False
        if "error" in answer:
            return ERROR, False
        alerted = bool(answer.get("alert"))
        got = (alerted, answer.get("score"), answer.get("matched"))
        if got != self.expected(index) or answer.get("version") != 1:
            return WRONG, alerted
        return OK, alerted

    def judge_phase(self, phase: Phase) -> tuple[np.ndarray, np.ndarray]:
        outcomes = np.zeros(phase.requests, dtype=np.int8)
        alerted = np.zeros(phase.requests, dtype=bool)
        for slot, (index, line) in enumerate(
            zip(phase.pool_index, phase.responses)
        ):
            outcomes[slot], alerted[slot] = self.judge(int(index), line)
        return outcomes, alerted


@dataclass
class Judged:
    """One phase plus its referee outcomes."""

    phase: Phase
    outcomes: np.ndarray
    alerted: np.ndarray


@dataclass
class Measured:
    """All rounds of one pass: ``open[r]`` then ``closed[r]``."""

    open: list[Judged]
    closed: list[Judged]

    def all(self) -> list[Judged]:
        return self.open + self.closed


def _pass(
    generator: Generator,
    data: inputs.GatewayInputs,
    referee: Referee,
    schedule: np.ndarray,
    open_s: float,
    closed_s: float,
    between=None,
) -> Measured:
    """Open-loop requests take the pool's head in order, so a seed always
    sends the same ones; closed-loop requests continue after them, each
    round's segment stopping early rather than wrapping around to the
    pool's start, so no request is sent twice in a pass.  Load is driven pinned
    (:class:`_Pinned`); *between*, when given, runs unpinned after each
    round."""
    measured = Measured([], [])
    open_cursor = 0
    closed_cursor = len(schedule)
    closed_limit = (len(data.wires) - len(schedule)) // ROUNDS
    segment = open_s / ROUNDS
    for round_index in range(ROUNDS):
        lo, hi = round_index * segment, (round_index + 1) * segment
        part = schedule[(schedule >= lo) & (schedule < hi)] - lo
        with _Pinned(generator.server):
            opened = generator.open_loop(data.wires, open_cursor, part)
            closed = generator.closed_loop(
                data.wires, closed_cursor, WINDOW, closed_s / ROUNDS,
                closed_limit,
            )
        open_cursor += opened.requests
        closed_cursor += closed.requests
        measured.open.append(Judged(opened, *referee.judge_phase(opened)))
        measured.closed.append(Judged(closed, *referee.judge_phase(closed)))
        if between is not None:
            between()
    return measured


def _latency_ms(phase: Phase) -> np.ndarray:
    """Latency from the scheduled send; unanswered requests are inf."""
    latency = (phase.arrival - phase.scheduled) * 1e3
    latency[np.isnan(latency)] = np.inf
    return latency


def _end_to_end(measured: Measured, data, plan: GatewayPlan) -> dict[str, float]:
    """Per-round values, reported as the median over rounds."""
    per_round: dict[str, list[float]] = {
        "cpu_us_per_req": [], "saturated_cpu_us_per_req": [],
        "latency_p50_ms": [], "slo_attainment": [],
    }
    for opened, closed in zip(measured.open, measured.closed):
        latency = _latency_ms(opened.phase)
        on_time = (opened.outcomes == OK) & (latency <= plan.slo_ms)
        per_round["cpu_us_per_req"].append(
            opened.phase.server_cpu_s / max(opened.phase.answered, 1) * 1e6
        )
        per_round["saturated_cpu_us_per_req"].append(
            closed.phase.server_cpu_s / max(closed.phase.answered, 1) * 1e6
        )
        per_round["latency_p50_ms"].append(float(np.median(latency)))
        per_round["slo_attainment"].append(float(on_time.mean()))
    out = {name: statistics.median(values) for name, values in per_round.items()}
    out["rounds"] = per_round
    judged = measured.all()
    attack = np.array(data.attack, dtype=bool)[
        np.concatenate([j.phase.pool_index for j in judged])
    ]
    alerted = np.concatenate([j.alerted for j in judged])
    out["tpr"] = float(alerted[attack].mean())
    out["fpr"] = float(alerted[~attack].mean())
    answered = sum(j.phase.answered for j in measured.closed)
    wall = sum(j.phase.wall_s for j in measured.closed)
    out["closed_loop_rps"] = answered / wall if wall else 0.0
    return out


def _delta(phases: list[Phase], name: str) -> float:
    return sum(
        p.metrics_after.get(name, 0.0) - p.metrics_before.get(name, 0.0)
        for p in phases
    )


def _mean_us(phases: list[Phase], histogram: str) -> float:
    count = _delta(phases, f"{histogram}_count")
    return _delta(phases, f"{histogram}_sum") / count * 1e6 if count else 0.0


def _serve_layer(measured: Measured) -> dict[str, float]:
    """Server-side numbers from ``/metrics`` plus the generator's own."""
    opened = [j.phase for j in measured.open]
    closed = [j.phase for j in measured.closed]
    layer: dict[str, float] = {}
    for prefix, phases in (("serve.", opened), ("serve.saturated_", closed)):
        service = _mean_us(phases, "repro_service_seconds")
        latency = _mean_us(phases, "repro_latency_seconds")
        layer[prefix + "service_us"] = service
        layer[prefix + "queue_wait_us"] = latency - service
    layer["serve.inspected"] = _delta(opened + closed, "repro_inspected_total")
    layer["serve.failed"] = sum(
        _delta(opened + closed, f"repro_{name}_total")
        for name in ("errors", "shed", "protocol_errors")
    )
    latency = np.concatenate([_latency_ms(p) for p in opened])
    layer["serve.latency_p99_ms"] = float(np.percentile(latency, 99))
    layer["serve.latency_samples"] = float(latency.size)
    late = np.concatenate([(p.sent - p.scheduled) * 1e3 for p in opened])
    layer["generator.late_p99_ms"] = float(np.percentile(late, 99))
    layer["generator.busy_us_per_req"] = (
        sum(p.generator_busy_s for p in opened)
        / sum(p.requests for p in opened) * 1e6
    )
    return layer


def _record_spans(spans: Spans, measured: Measured) -> None:
    """Generator spans: phase → request (scheduled → answer) → lateness."""
    for kind, judged in (("open", measured.open), ("closed", measured.closed)):
        for item in judged:
            phase = item.phase
            base = int(phase.t0 * 1e9)
            root = spans.add(
                f"phase.{kind}_loop", base, base + int(phase.wall_s * 1e9)
            )
            for slot in np.flatnonzero(~np.isnan(phase.arrival)):
                request_id = int(phase.pool_index[slot])
                scheduled = base + int(phase.scheduled[slot] * 1e9)
                request = spans.add(
                    "gen.request", scheduled,
                    base + int(phase.arrival[slot] * 1e9), root, request_id,
                )
                spans.add(
                    "gen.late", scheduled,
                    base + int(phase.sent[slot] * 1e9), request, request_id,
                )


def _failures(measured: Measured) -> dict[str, int]:
    outcomes = np.concatenate([j.outcomes for j in measured.all()])
    return {
        name: int((outcomes == code).sum())
        for code, name in enumerate(OUTCOMES) if code != OK
    }


class _Pinned:
    """Generator on one CPU, server on another, while load is driven.

    With the generator polling, a server that wakes up on the
    generator's CPU would wait behind it; separate CPUs keep that
    scheduling accident out of the numbers.  Without two CPUs nothing is
    pinned.  Leaving restores this process's CPU set, so worker
    processes forked later (training) see every CPU.
    """

    def __init__(self, server: ServerProcess) -> None:
        self.server = server
        self.cpus = sorted(os.sched_getaffinity(0))

    def __enter__(self) -> None:
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, {self.cpus[0]})
            os.sched_setaffinity(self.server.pid, {self.cpus[1]})

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Result:
    plan = PLANS[workload]
    result = Result(workload)
    if workload == "line-mix":
        data = inputs.line_mix(seed)
    else:
        data = inputs.framed_surfaces(seed)

    start = time.perf_counter()
    trained = PSigenePipeline(PipelineConfig(workers=2)).run()
    train_s = time.perf_counter() - start
    signatures_json = signature_set_to_json(trained.signature_set)
    signatures = ctx.workdir / "signatures.json"
    signatures.write_text(signatures_json)
    detector = PSigeneDetector(signature_set_from_json(signatures_json))
    referee = Referee(detector, data)

    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    schedule = inputs.poisson_schedule(seed, plan.rate, open_s)
    connections = min(2, len(os.sched_getaffinity(0)))
    spec = "all" if data.framed else "query,form"

    # The probe's reference verdict is an alert, so a server that answers
    # "no alert" to everything cannot pass set-up.
    probe = next(
        i for i, attack in enumerate(data.attack)
        if attack and referee.expected(i)[0]
    )
    # Set-up is timed by the serving process's own CPU clock: it leaves
    # out steal and run-queue waits, which on a shared host moved the
    # wall-clock launch time by a quarter between sets of runs.  The
    # launches are spread over the run, so a slow spell of the host
    # spoils a few of them, not all.
    launches: list[float] = []
    walls: list[float] = []

    def launch() -> ServerProcess:
        """A new server, timed to its first correct answer."""
        server = ServerProcess(ctx.root, signatures, spec, ctx.workdir)
        began = time.perf_counter()
        server.start()
        try:
            with server.connect() as sock:
                answer = ask(sock, data.wires[probe]).rstrip(b"\n")
            walls.append(time.perf_counter() - began)
            launches.append(server.cpu_seconds())
        except BaseException:
            server.stop()
            raise
        outcome, _ = referee.judge(probe, answer)
        if outcome != OK:
            result.fail(f"launch {len(launches)}: probe answered {OUTCOMES[outcome]}")
        return server

    server = None
    freeze_heap()
    try:
        server = launch()
        generator = Generator(server, connections)
        measured = _pass(
            generator, data, referee, schedule, open_s, closed_s,
            between=lambda: launch().stop(),
        )
        e2e = _end_to_end(measured, data, plan)
        failures = _failures(measured)
        result.attempted = len(launches) + sum(
            j.phase.requests for j in measured.all()
        )

        if trace:
            spans = Spans()
            traced = _pass(generator, data, referee, schedule, open_s, closed_s)
            traced_e2e = _end_to_end(traced, data, plan)
            _record_spans(spans, traced)
            for name, count in _failures(traced).items():
                failures[name] += count
            result.attempted += sum(j.phase.requests for j in traced.all())
            # The training path (crawler … pipeline) is train-eval's: 0 here.
            layer = dict.fromkeys(PER_LAYER, 0.0)
            layer.update(_serve_layer(traced))
            # The pool's head: the open-loop requests, in the order sent.
            items = [
                (i, data.wires[i], data.requests[i])
                for i in range(min(LAYER_REPLAY, len(data.wires)))
            ]
            replayed, replay_census = replay_requests(
                spans, detector, items, framed=data.framed, surfaces=data.surfaces
            )
            layer.update(replayed)
            layer["serve.overhead_us"] = (
                e2e["cpu_us_per_req"] - layer["ids.request_us"]
            )
            layer["protocol.bytes_per_req"] = float(
                np.mean([len(wire) for _, wire, _ in items])
            )
            result.layer = layer
            result.spans = spans
            result.overhead = {
                name: traced_e2e[name] - e2e[name]
                for name in ("cpu_us_per_req", "saturated_cpu_us_per_req",
                             "latency_p50_ms", "slo_attainment")
            }
        peak_rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()

    e2e.update(
        setup_s=statistics.median(launches),
        train_s=train_s,
        peak_rss_mb=peak_rss,
    )
    result.e2e = e2e
    for name, count in failures.items():
        if count:
            result.fail(f"{count} {name} responses", count)

    sent = np.concatenate([j.phase.pool_index for j in measured.all()])
    wires = [data.wires[i] for i in sent]
    attack = [data.attack[i] for i in sent]
    result.census = inputs.census(wires, [data.units(int(i)) for i in sent], attack)
    result.census.update(
        open_loop_requests=sum(j.phase.requests for j in measured.open),
        closed_loop_requests=sum(j.phase.requests for j in measured.closed),
        pool_requests=len(data.wires),
        rounds=ROUNDS,
        rate_per_s=plan.rate,
        window_per_connection=WINDOW,
        connections=connections,
        slo_ms=plan.slo_ms,
    )
    result.matchers = {
        "serving set": serving_matcher(detector.signature_set).describe(),
        "477-pattern catalog": matcher_for_patterns(
            tuple(build_catalog().patterns)
        ).describe(),
    }
    if trace:
        result.census.update(replay_census)
    result.notes.append(
        "launch-to-first-answer serving-process CPU samples (s): "
        + ", ".join(f"{t:.3f}" for t in launches)
    )
    result.notes.append(
        "launch-to-first-answer wall samples (s): "
        + ", ".join(f"{t:.3f}" for t in walls)
    )
    for name, values in e2e.pop("rounds").items():
        result.notes.append(
            f"per round {name}: " + ", ".join(f"{v:.4g}" for v in values)
        )
    return result
