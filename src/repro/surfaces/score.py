"""Surface-aware scoring: fold per-surface verdicts into one alert.

:func:`score_request` is the single folding routine shared by the
offline entry points (``PSigeneDetector.inspect_request``,
``SignatureEngine``) and the gateway's framed wire mode — one
implementation means the ``gateway-framed`` conformance path proves the
wire agrees with the library by construction, not by coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.surfaces.extractors import scoring_units
from repro.surfaces.model import (
    InjectionSurface,
    LEGACY_SURFACES,
    format_surfaces,
)

__all__ = [
    "ScoreRequest",
    "SurfaceDetection",
    "SurfaceVerdict",
    "score_request",
]


@dataclass(frozen=True)
class ScoreRequest:
    """The unified input to every detector entry point.

    Wraps the request-shaped object to score plus the surface selection;
    ``inspect``/``inspect_request``/``SignatureEngine.run`` are thin
    wrappers that build one of these.  ``request`` may be ``None`` for
    the raw-payload path (then ``payload`` carries the string directly,
    preserving the line-protocol and ``inspect_payload`` semantics).
    """

    request: object | None = None
    payload: str | None = None
    surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES

    def __post_init__(self) -> None:
        if (self.request is None) == (self.payload is None):
            raise ValueError(
                "ScoreRequest needs exactly one of request= or payload="
            )


@dataclass(frozen=True)
class SurfaceVerdict:
    """One surface unit's verdict: where, what, and what the engine said.

    ``detection`` is whatever the payload-level detector returned — a
    :class:`repro.ids.rules.Detection` in practice; this module only
    reads its ``alert``/``score``/``matched_sids``.
    """

    surface: InjectionSurface
    locator: str
    detection: Any


@dataclass
class SurfaceDetection:
    """A whole-request verdict with per-surface attribution.

    Carries the exact legacy :class:`repro.ids.rules.Detection` shape
    (``alert``/``score``/``matched_sids`` — deliberately not a subclass,
    so :mod:`repro.surfaces` stays import-cycle-free below ``repro.ids``),
    so every consumer of the legacy verdict works unchanged; ``verdicts``
    adds which surface(s) alerted and through which locator.  The folded
    fields are the per-unit maximum score, the union of fired sids in
    first-seen order, and alert-if-any-unit-alerted.
    """

    alert: bool
    score: float
    matched_sids: list[int] = field(default_factory=list)
    verdicts: list[SurfaceVerdict] = field(default_factory=list)

    @property
    def alerting_surfaces(self) -> tuple[InjectionSurface, ...]:
        """Surfaces with at least one alerting unit, extraction order."""
        seen: list[InjectionSurface] = []
        for verdict in self.verdicts:
            if verdict.detection.alert and verdict.surface not in seen:
                seen.append(verdict.surface)
        return tuple(seen)

    def attribution(self) -> dict:
        """JSON-ready surface breakdown (gateway responses, CLI)."""
        return {
            "surfaces": format_surfaces(self.alerting_surfaces),
            "verdicts": [
                {
                    "surface": v.surface.value,
                    "locator": v.locator,
                    "alert": v.detection.alert,
                    "score": v.detection.score,
                    "sids": list(v.detection.matched_sids),
                }
                for v in self.verdicts
            ],
        }


def score_request(
    inspect: Callable[[str], Any],
    request: object,
    surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
) -> SurfaceDetection:
    """Score every selected surface of *request* through *inspect*.

    The query/form channels are flattened into one unit exactly as the
    legacy path did (see :func:`repro.surfaces.extractors.scoring_units`),
    so with the default selection the folded verdict is bit-identical to
    ``inspect(request.flat_payload())`` — the ``surfaces-legacy-parity``
    conformance path holds by construction.
    """
    verdicts: list[SurfaceVerdict] = []
    alert = False
    score: float | None = None
    fired: list[int] = []
    fired_seen: set[int] = set()
    for unit in scoring_units(request, surfaces):
        detection = inspect(unit.value)
        verdicts.append(SurfaceVerdict(unit.surface, unit.locator, detection))
        alert = alert or detection.alert
        score = detection.score if score is None else max(score, detection.score)
        for sid in detection.matched_sids:
            if sid not in fired_seen:
                fired_seen.add(sid)
                fired.append(sid)
    return SurfaceDetection(
        alert=alert,
        score=0.0 if score is None else score,
        matched_sids=fired,
        verdicts=verdicts,
    )
