"""The IDS engine: drives traffic through detectors, collects alerts.

This is the reproduction of the paper's Bro deployment (Section III-C):
pSigene signatures were implemented in Bro via a ``count_all()`` policy
function; here any detector exposing ``inspect(payload) -> Detection`` can
be mounted, which puts pSigene and the baseline rulesets behind one
uniform interface for the accuracy (Table V) and performance (Experiment
4) measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.core.signature import SignatureSet
from repro.http.request import HttpRequest
from repro.http.traffic import Trace
from repro.ids.rules import Detection
from repro.obs import trace as obs_trace
from repro.surfaces import (
    LEGACY_SURFACES,
    InjectionSurface,
    ScoreRequest,
    SurfaceDetection,
    format_surfaces,
    score_request,
)

if TYPE_CHECKING:  # imported lazily to avoid the ids <-> serve cycle
    import numpy as np

    from repro.serve.telemetry import Telemetry


class Detector(Protocol):
    """Anything the engine can mount."""

    name: str

    def inspect(self, payload: str) -> Detection:
        """Return the detector's verdict on one payload."""
        ...


class PSigeneDetector:
    """Adapter: a :class:`SignatureSet` behind the detector interface."""

    def __init__(self, signature_set: SignatureSet, name: str = "psigene"):
        self.signature_set = signature_set
        self.name = name

    def inspect(self, payload: str) -> Detection:
        """Alert when any generalized signature crosses its threshold.

        One :meth:`SignatureSet.evaluate` call normalizes the payload once
        and walks the signatures once.
        """
        score, fired = self.signature_set.evaluate(payload)
        return Detection(alert=bool(fired), score=score, matched_sids=fired)

    def inspect_request(
        self,
        request: HttpRequest,
        surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    ) -> SurfaceDetection:
        """Score every selected surface of *request* through the fused set.

        Each extracted surface unit goes through the same
        :meth:`SignatureSet.evaluate` path as :meth:`inspect`; the
        per-surface verdicts fold into one alert with surface
        attribution.  With the default (legacy) selection the folded
        verdict is bit-identical to ``inspect(request.flat_payload())``.
        """
        return score_request(self.inspect, request, surfaces)


@dataclass
class Alert:
    """One alert record.

    Attributes:
        request_index: position of the offending request in the trace.
        detector: detector name.
        score: detector score at alert time.
        matched: rule sids / signature numbers that fired.
    """

    request_index: int
    detector: str
    score: float
    matched: list[int]


def _zeros(length: int, dtype: type) -> np.ndarray:
    """``np.zeros``, imported where it runs: the serving path mounts
    detectors through this module but never builds an :class:`EngineRun`."""
    import numpy as np

    return np.zeros(length, dtype=dtype)


@dataclass
class EngineRun:
    """Result of one trace inspection.

    Attributes:
        detector: detector name.
        trace_name: inspected trace.
        alerts: alert records.
        alert_flags: per-request boolean alert vector.
        timings: per-request processing time in seconds (when measured).
        scores: per-request detector scores (populated by the batch path,
            which gets them for free; empty for plain serial runs).
    """

    detector: str
    trace_name: str
    alerts: list[Alert] = field(default_factory=list)
    alert_flags: np.ndarray = field(default_factory=lambda: _zeros(0, bool))
    timings: np.ndarray = field(default_factory=lambda: _zeros(0, float))
    scores: np.ndarray = field(default_factory=lambda: _zeros(0, float))

    @property
    def alert_count(self) -> int:
        """Number of alert records in this run."""
        return len(self.alerts)

    def timing_summary_us(self) -> tuple[float, float, float]:
        """(min, mean, max) per-request processing time in microseconds."""
        if self.timings.size == 0:
            return (0.0, 0.0, 0.0)
        return (
            float(self.timings.min() * 1e6),
            float(self.timings.mean() * 1e6),
            float(self.timings.max() * 1e6),
        )


class SignatureEngine:
    """Runs detectors over traces.

    Every entry point — single payload, single request, whole trace —
    funnels through :meth:`score` on a :class:`repro.surfaces.ScoreRequest`,
    so payload-level and surface-aware scoring share one code path (and
    one telemetry schema).  ``inspect_payload``/``inspect_request`` are
    thin wrappers kept for their call sites.

    Args:
        detector: the mounted detector.
        telemetry: optional :class:`~repro.serve.telemetry.Telemetry`
            sink.  When present every inspection — offline ``run`` or
            single request — feeds the same ``inspected``/``alerted``
            counters and ``service`` latency histogram the online
            gateway reports, so batch scoring and live serving share one
            metrics schema.  Surface-aware inspections additionally feed
            the ``repro_surface_*`` counters.
        surfaces: default surface selection for request-level entry
            points; the paper's query+form channels unless overridden
            (CLI ``--surfaces``).
    """

    def __init__(
        self,
        detector: Detector,
        *,
        telemetry: "Telemetry | None" = None,
        surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    ) -> None:
        self.detector = detector
        self.telemetry = telemetry
        self.surfaces = surfaces

    def score(self, request: ScoreRequest) -> Detection:
        """The unified entry point: score one :class:`ScoreRequest`.

        A payload-shaped request goes straight to the detector; a
        request-shaped one is extracted surface by surface and folded
        (:func:`repro.surfaces.score_request`).  Telemetry, when
        attached, sees both the whole-request inspection and — for
        surface-aware scoring — the per-surface counters.
        """
        start = time.perf_counter() if self.telemetry is not None else 0.0
        if request.payload is not None:
            detection: Detection = self.detector.inspect(request.payload)
        else:
            detection = score_request(
                self.detector.inspect, request.request, request.surfaces
            )
        if self.telemetry is not None:
            self.telemetry.record_inspection(
                detection.alert, time.perf_counter() - start
            )
            self.telemetry.record_surfaces(detection)
        return detection

    def inspect_payload(self, payload: str) -> Detection:
        """Inspect one raw payload string."""
        return self.score(ScoreRequest(payload=payload))

    def inspect_request(
        self,
        request: HttpRequest,
        surfaces: tuple[InjectionSurface, ...] | None = None,
    ) -> SurfaceDetection:
        """Inspect one request across its (selected) injection surfaces."""
        return self.score(ScoreRequest(
            request=request,
            surfaces=self.surfaces if surfaces is None else surfaces,
        ))

    def run(self, trace: Trace, *, measure_time: bool = False) -> EngineRun:
        """Inspect every request of *trace*; optionally time each one."""
        with obs_trace.span(
            "engine.run",
            detector=self.detector.name,
            requests=len(trace),
        ):
            return self._run(trace, measure_time=measure_time)

    def _run(self, trace: Trace, *, measure_time: bool) -> EngineRun:
        flags = _zeros(len(trace), bool)
        timings = _zeros(len(trace) if measure_time else 0, float)
        run = EngineRun(
            detector=self.detector.name, trace_name=trace.name,
        )
        measuring = measure_time or self.telemetry is not None
        for index, request in enumerate(trace):
            if measuring:
                start = time.perf_counter()
                detection = score_request(
                    self.detector.inspect, request, self.surfaces
                )
                elapsed = time.perf_counter() - start
                if measure_time:
                    timings[index] = elapsed
                if self.telemetry is not None:
                    self.telemetry.record_inspection(
                        detection.alert, elapsed
                    )
                    self.telemetry.record_surfaces(detection)
            else:
                detection = score_request(
                    self.detector.inspect, request, self.surfaces
                )
            if detection.alert:
                flags[index] = True
                run.alerts.append(Alert(
                    request_index=index,
                    detector=self.detector.name,
                    score=detection.score,
                    matched=detection.matched_sids,
                ))
        run.alert_flags = flags
        run.timings = timings
        return run

    def run_batch(self, trace: Trace, *, workers: int = 1) -> EngineRun:
        """Batched :meth:`run`: chunk the trace and fan chunks over processes.

        Produces an :class:`EngineRun` with alert flags, scores, and matched
        sids identical to the serial :meth:`run` (asserted by the parity
        tests).  With ``workers=1`` the batch path still pays off: payloads
        are normalized once through an LRU cache and each signature is
        evaluated in a single pass.

        Raises:
            ValueError: when :attr:`surfaces` is not the legacy selection.
                The batch path scores each request's flattened query+form
                payload; :meth:`run` honours any surface selection.
        """
        if frozenset(self.surfaces) != frozenset(LEGACY_SURFACES):
            raise ValueError(
                "run_batch scores only the legacy query+form payload, not "
                f"surfaces={format_surfaces(self.surfaces)}; use run(), "
                "which honours the surface selection"
            )
        from repro.parallel.batch import run_batch

        result = run_batch(self.detector, trace, workers=workers)
        if self.telemetry is not None:
            # Workers run in other processes, so per-request service
            # latencies are not observable here; the counters still are.
            self.telemetry.increment("inspected", len(trace))
            self.telemetry.increment("alerted", result.alert_count)
        return result
