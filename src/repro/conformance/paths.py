"""The registered detector paths the oracle can drive.

A *path* is one way this repo turns a payload into a verdict: the serial
``detector.inspect`` loop, the offline engine's ``run``, the batched
``run_batch`` fan-out at several worker counts, and a live gateway TCP
round-trip.  Every path reduces its native output to the
:class:`~repro.conformance.verdict.Verdict` normal form, so the oracle
can compare them without knowing how any of them work inside.

Paths declare applicability via :meth:`DetectorPath.supports`: the
multiprocess batch paths need a picklable detector, and everything else
takes any :class:`~repro.ids.engine.Detector`.
"""

from __future__ import annotations

import copy
import pickle

from repro.conformance.verdict import (
    ConformanceError,
    Verdict,
    serial_verdicts,
    verdicts_from_responses,
)
from repro.core.signature import SignatureSet
from repro.http.request import HttpRequest
from repro.http.traffic import Trace

__all__ = [
    "BatchPath",
    "DetectorPath",
    "EngineRunPath",
    "GatewayFramedPath",
    "GatewayPath",
    "LegacySerialPath",
    "SerialPath",
    "ShardedGatewayPath",
    "SurfacesLegacyParityPath",
    "default_paths",
]

#: Worker counts the batch paths cover by default — 1 exercises the
#: in-process chunk loop, 2 and 8 the real multiprocess fan-out.
DEFAULT_WORKER_COUNTS = (1, 2, 8)


def _as_trace(payloads: list[str], name: str) -> Trace:
    """Wrap raw payload strings as a query-only trace.

    ``HttpRequest(query=p).flat_payload()`` round-trips the string
    unchanged, so trace-driven paths see byte-identical detector input.
    """
    return Trace(
        name=name, requests=[HttpRequest(query=p) for p in payloads]
    )


class DetectorPath:
    """One registered way of computing verdicts.

    Subclasses set :attr:`name` and implement :meth:`run`; they may
    narrow :meth:`supports` when the path needs detector internals.
    """

    name = "abstract"

    def supports(self, detector) -> bool:
        """Can this path drive *detector*?"""
        del detector
        return True

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Verdicts for *payloads*, in order.

        Raises:
            ConformanceError: when the path cannot produce a verdict for
                every payload (the oracle turns this into a path-level
                divergence rather than crashing the whole run).
        """
        raise NotImplementedError


class SerialPath(DetectorPath):
    """Ground truth: one ``detector.inspect`` call per payload."""

    name = "serial"

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """One ``inspect`` call per payload, in order."""
        return serial_verdicts(detector, payloads)


class LegacySerialPath(DetectorPath):
    """The serial loop on the per-signature reference engine.

    Every other path inherits whatever engine ``SignatureSet`` routes to
    (the fused one, by default); this path scores through the detector's
    set pinned by :meth:`SignatureSet.reference`, so any fused-vs-legacy
    disagreement — scores to the last ulp, verdicts exactly — surfaces
    as a divergence against ``serial`` instead of silently shifting
    every path together.  Detectors without a signature set run as
    given, like ``serial``.
    """

    name = "serial-legacy"

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """One ``inspect`` call per payload on the reference engine."""
        signature_set = getattr(detector, "signature_set", None)
        if isinstance(signature_set, SignatureSet):
            detector = copy.copy(detector)
            detector.signature_set = signature_set.reference()
        return serial_verdicts(detector, payloads)


class EngineRunPath(DetectorPath):
    """The offline :meth:`~repro.ids.engine.SignatureEngine.run` loop.

    The serial engine only records scores for alerting requests, so
    non-alert verdicts carry ``score=None`` and the oracle skips their
    score comparison.
    """

    name = "engine-run"

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Verdicts reconstructed from one ``EngineRun`` over a trace."""
        from repro.ids.engine import SignatureEngine

        run = SignatureEngine(detector).run(
            _as_trace(payloads, "conform-engine")
        )
        by_index = {alert.request_index: alert for alert in run.alerts}
        verdicts: list[Verdict] = []
        for index in range(len(payloads)):
            alert = by_index.get(index)
            if alert is None:
                verdicts.append(Verdict(
                    alert=bool(run.alert_flags[index]), score=None, fired=()
                ))
            else:
                verdicts.append(Verdict(
                    alert=True,
                    score=float(alert.score),
                    fired=tuple(int(s) for s in alert.matched),
                ))
        return verdicts


class BatchPath(DetectorPath):
    """The chunked :func:`repro.parallel.batch.run_batch` fan-out."""

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = f"batch-w{workers}"

    def supports(self, detector) -> bool:
        """Multiprocess fan-out needs a picklable detector."""
        if self.workers == 1:
            return True
        try:  # multiprocess fan-out ships the detector to workers
            pickle.dumps(detector)
        except Exception:
            return False
        return True

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Verdicts from one chunked ``run_batch`` execution."""
        from repro.parallel.batch import run_batch

        run = run_batch(
            detector,
            _as_trace(payloads, f"conform-{self.name}"),
            workers=self.workers,
        )
        by_index = {alert.request_index: alert for alert in run.alerts}
        return [
            Verdict(
                alert=bool(run.alert_flags[index]),
                score=float(run.scores[index]),
                fired=tuple(
                    int(s) for s in by_index[index].matched
                ) if index in by_index else (),
            )
            for index in range(len(payloads))
        ]


class GatewayPath(DetectorPath):
    """A live gateway round-trip: real TCP socket, real wire framing.

    The gateway is started on an ephemeral port, the payloads are
    replayed over pipelined connections exactly like ``repro loadgen``,
    and each data-plane response line decodes to one verdict.  The
    queue bound is sized to the payload count and the policy is
    ``block``, so nothing sheds — a missing or error response is a
    conformance failure, not load shedding.
    """

    name = "gateway"

    def __init__(
        self,
        *,
        connections: int = 2,
        window: int = 32,
    ) -> None:
        self.connections = connections
        self.window = window

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Replay *payloads* against a live gateway and decode."""
        from repro.serve.protocol import encode_line

        return verdicts_from_responses(
            self._roundtrip(detector, [encode_line(p) for p in payloads]),
            self.name,
        )

    def _roundtrip(
        self,
        detector,
        wires: list[bytes],
        *,
        shards: int | None = None,
        midstream_json: str | None = None,
    ) -> list[dict | None]:
        """Start a gateway (a fleet with ``shards``), replay, stop it.

        With ``midstream_json`` the fleet re-deploys that signature set
        as its next generation, from a thread, while the replay is in
        flight.
        """
        import threading
        import time

        from repro.serve.gateway import DetectionGateway, GatewayConfig
        from repro.serve.loadgen import replay
        from repro.serve.store import SignatureStore
        from repro.serve.supervisor import FleetConfig, FleetSupervisor

        config = GatewayConfig(queue_bound=max(64, len(wires)), policy="block")
        if shards is None:
            server = DetectionGateway(SignatureStore(detector), config)
        else:
            server = FleetSupervisor(
                detector, FleetConfig(shards=shards, gateway=config)
            )
        host, port = server.start()
        failed: list[Exception] = []

        def reload() -> None:
            # Let some payloads land on the current generation, then
            # flip the whole fleet mid-stream.
            time.sleep(0.05)
            try:
                server.reload_json(
                    midstream_json, source="conformance-midstream"
                )
            except Exception as error:  # re-raised after the replay
                failed.append(error)

        reloader = threading.Thread(target=reload)
        try:
            if midstream_json is not None:
                reloader.start()
            responses, _latencies, _duration = replay(
                host, port, wires,
                connections=self.connections, window=self.window,
            )
        finally:
            if reloader.is_alive():
                reloader.join()
            server.stop()
        if failed:
            raise failed[0]
        return responses


class SurfacesLegacyParityPath(DetectorPath):
    """The surface-aware scorer pinned to the legacy selection.

    :func:`repro.surfaces.score_request` with ``surfaces=query,form``
    promises verdicts identical to flattening the request and calling
    ``detector.inspect`` — the parity contract that lets every caller
    migrate to the surface API without revalidating its alerts.  This
    path scores each payload as a query-only request through the
    surface scorer; any divergence from ``serial`` is a broken
    flattening, not a detector change.
    """

    name = "surfaces-legacy-parity"

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """One legacy-selection ``score_request`` per payload."""
        from repro.surfaces import LEGACY_SURFACES, score_request

        return [
            Verdict.from_detection(
                score_request(
                    detector.inspect, HttpRequest(query=p), LEGACY_SURFACES
                )
            )
            for p in payloads
        ]


class GatewayFramedPath(GatewayPath):
    """A live gateway round-trip in framed full-request mode (wire v2).

    Each payload travels as a whole :class:`HttpRequest` inside a
    ``REPRO-FRAME/2`` frame with the legacy surface selection, so the
    response must carry the exact legacy verdict *plus* surface
    attribution.  This proves the framed data plane end to end: header
    parsing, frame-body decode, surface extraction in the worker, and
    the extended response encoding.
    """

    name = "gateway-framed"

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Replay framed requests against a live gateway and decode."""
        from repro.serve.protocol import encode_framed_request
        from repro.surfaces import LEGACY_SURFACES

        responses = self._roundtrip(detector, [
            encode_framed_request(HttpRequest(query=p), LEGACY_SURFACES)
            for p in payloads
        ])
        verdicts = verdicts_from_responses(responses, self.name)
        for index, response in enumerate(responses):
            if "surfaces" not in response or "verdicts" not in response:
                raise ConformanceError(
                    f"framed response {index} lacks surface attribution: "
                    f"{response!r}"
                )
        return verdicts


class ShardedGatewayPath(GatewayPath):
    """A live multi-process fleet round-trip on one shared TCP port.

    The payloads travel through everything the fleet adds on top of the
    single-process gateway — ``SO_REUSEPORT`` (or pre-fork) connection
    balancing, per-shard admission queues, per-shard store generations —
    so any divergence from the serial baseline is a real data-plane
    defect, not a simulation artifact.  Queue bounds are sized to the
    payload count under ``block`` policy: nothing sheds, a missing
    verdict is a conformance failure.

    With ``midstream_reload`` the oracle's replay races a full
    two-phase fleet reload: the *same* signature set is re-deployed as
    generation 2 while payloads are in flight, so every verdict must
    still match the serial baseline bit-for-bit no matter which
    generation answered it — the atomicity claim, tested from the
    outside.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        connections: int = 4,
        window: int = 32,
        midstream_reload: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        super().__init__(connections=connections, window=window)
        self.shards = shards
        self.midstream_reload = midstream_reload
        suffix = "-reload" if midstream_reload else ""
        self.name = f"fleet-s{shards}{suffix}"

    def supports(self, detector) -> bool:
        """Needs fork (detector inheritance); the reload variant also
        needs a serializable :class:`SignatureSet` to re-deploy."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        if not self.midstream_reload:
            return True
        return isinstance(
            getattr(detector, "signature_set", None), SignatureSet
        )

    def run(self, detector, payloads: list[str]) -> list[Verdict]:
        """Replay *payloads* against a live fleet and decode."""
        from repro.serve.protocol import encode_line

        midstream_json = None
        if self.midstream_reload:
            from repro.core.serialize import signature_set_to_json

            midstream_json = signature_set_to_json(detector.signature_set)
        responses = self._roundtrip(
            detector,
            [encode_line(p) for p in payloads],
            shards=self.shards,
            midstream_json=midstream_json,
        )
        return verdicts_from_responses(responses, self.name)


def default_paths(
    *,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    gateway: bool = True,
    fleet: bool = True,
    fleet_shards: int = 2,
) -> list[DetectorPath]:
    """Every registered path, serial (the baseline) first."""
    paths: list[DetectorPath] = [
        SerialPath(), LegacySerialPath(), EngineRunPath(),
        SurfacesLegacyParityPath(),
    ]
    paths.extend(BatchPath(workers=count) for count in worker_counts)
    if gateway:
        paths.append(GatewayPath())
        paths.append(GatewayFramedPath())
    if fleet:
        paths.append(ShardedGatewayPath(shards=fleet_shards))
        paths.append(
            ShardedGatewayPath(shards=fleet_shards, midstream_reload=True)
        )
    return paths
