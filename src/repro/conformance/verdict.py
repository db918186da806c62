"""Verdict normal form and divergence records.

The paper's operational claim (Section V) is that a deployed signature
set gives one stable verdict per payload.  The repo now computes that
verdict along several code paths — serial ``evaluate``, batched
``run_batch``, the serving gateway — and the conformance layer reduces
every path's answer to one comparable shape: ``(alert, score, fired)``.
Two paths *conform* when their verdict sequences are element-wise equal
(scores within a tolerance); every disagreement becomes a structured
:class:`Divergence` rather than a bare assertion failure, so a report
can name the payload, the paths, and the field that split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ConformanceError",
    "ConformanceReport",
    "Divergence",
    "Verdict",
    "diff_verdicts",
    "verdicts_from_responses",
]

#: Payload text beyond this many characters is elided in reports.
MAX_PAYLOAD_CHARS = 120

#: Default absolute tolerance for score comparison.  Scores are pure
#: float64 arithmetic over identical inputs, so paths in one process
#: agree bit-for-bit; the tolerance absorbs only serialization
#: round-trips (JSON floats over the gateway wire).
SCORE_TOLERANCE = 1e-9


class ConformanceError(RuntimeError):
    """A detector path failed outright (not a per-payload divergence)."""


@dataclass(frozen=True)
class Verdict:
    """One path's verdict on one payload.

    Attributes:
        alert: did the detector alert.
        score: the decision score; ``None`` when the path does not expose
            one (the serial engine only records scores for alerts).
        fired: signature numbers / rule sids that fired, in path order.
    """

    alert: bool
    score: float | None
    fired: tuple[int, ...]

    @classmethod
    def from_detection(cls, detection) -> "Verdict":
        """Normalize a :class:`~repro.ids.rules.Detection`."""
        return cls(
            alert=bool(detection.alert),
            score=float(detection.score),
            fired=tuple(int(s) for s in detection.matched_sids),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (golden-corpus record body)."""
        return {
            "alert": self.alert,
            "score": self.score,
            "fired": list(self.fired),
        }


def verdicts_from_responses(
    responses: list[dict | None], source: str
) -> list[Verdict]:
    """Decoded data-plane responses as verdicts, in order.

    Args:
        responses: one decoded response per payload (``None`` when the
            connection died before answering).
        source: what answered, for the error message.

    Raises:
        ConformanceError: a response is missing, shed, or an error.
            Live callers size their queue bounds so that nothing sheds,
            so any of these is a serving defect, not a verdict.
    """
    verdicts: list[Verdict] = []
    for index, response in enumerate(responses):
        if response is None or response.get("shed") or "error" in response:
            raise ConformanceError(
                f"{source} gave no verdict for payload {index}: "
                f"{response!r}"
            )
        verdicts.append(Verdict(
            alert=bool(response.get("alert")),
            score=float(response.get("score", 0.0)),
            fired=tuple(int(s) for s in response.get("matched", [])),
        ))
    return verdicts


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two detector paths.

    Attributes:
        baseline: name of the reference path.
        path: name of the disagreeing path.
        index: payload position, or ``None`` for path-level failures
            (a path that crashed or returned the wrong count).
        field: what disagreed — ``alert``, ``score``, ``fired``,
            ``count``, ``error``, or ``feature:<label>`` for extraction
            cells.
        expected: the baseline's value.
        observed: the path's value.
        payload: elided payload text, for human triage.
    """

    baseline: str
    path: str
    index: int | None
    field: str
    expected: Any
    observed: Any
    payload: str = ""

    def describe(self) -> str:
        """One-line rendering for reports."""
        where = f"payload[{self.index}]" if self.index is not None else "path"
        text = f" {self.payload!r}" if self.payload else ""
        return (
            f"{self.path} vs {self.baseline} @ {where}.{self.field}: "
            f"expected {self.expected!r}, got {self.observed!r}{text}"
        )


@dataclass
class ConformanceReport:
    """Outcome of one oracle run.

    Attributes:
        detector: detector name the paths shared.
        n_payloads: payloads driven through every path.
        paths: path names executed, baseline first.
        divergences: every observed disagreement.
        path_wall_s: wall-clock seconds per path.
    """

    detector: str
    n_payloads: int
    paths: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    path_wall_s: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every path agreed on every payload."""
        return not self.divergences

    def divergences_for(self, path: str) -> list[Divergence]:
        """The divergences attributed to one path."""
        return [d for d in self.divergences if d.path == path]

    def summary(self) -> str:
        """One-line verdict for logs and CI output."""
        verdict = "CONFORMANT" if self.ok else "DIVERGENT"
        return (
            f"{verdict}: detector={self.detector} payloads={self.n_payloads} "
            f"paths={len(self.paths)} divergences={len(self.divergences)}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for manifests and tooling."""
        return {
            "detector": self.detector,
            "n_payloads": self.n_payloads,
            "paths": list(self.paths),
            "ok": self.ok,
            "divergences": [
                {
                    "baseline": d.baseline,
                    "path": d.path,
                    "index": d.index,
                    "field": d.field,
                    "expected": d.expected,
                    "observed": d.observed,
                    "payload": d.payload,
                }
                for d in self.divergences
            ],
            "path_wall_s": {
                name: round(seconds, 6)
                for name, seconds in self.path_wall_s.items()
            },
        }


def _elide(payload: str) -> str:
    if len(payload) <= MAX_PAYLOAD_CHARS:
        return payload
    return payload[:MAX_PAYLOAD_CHARS] + "…"


def diff_verdicts(
    baseline_name: str,
    baseline: list[Verdict],
    path_name: str,
    verdicts: list[Verdict],
    payloads: list[str],
    *,
    score_tolerance: float = SCORE_TOLERANCE,
) -> list[Divergence]:
    """Element-wise diff of one path's verdicts against the baseline.

    A length mismatch yields a single ``count`` divergence (per-payload
    comparison would misattribute every later index).  Scores are only
    compared when both paths expose one.
    """
    if len(baseline) != len(verdicts):
        return [Divergence(
            baseline=baseline_name,
            path=path_name,
            index=None,
            field="count",
            expected=len(baseline),
            observed=len(verdicts),
        )]
    out: list[Divergence] = []
    for index, (truth, seen) in enumerate(zip(baseline, verdicts)):
        elided = _elide(payloads[index]) if index < len(payloads) else ""
        if truth.alert != seen.alert:
            out.append(Divergence(
                baseline=baseline_name, path=path_name, index=index,
                field="alert", expected=truth.alert, observed=seen.alert,
                payload=elided,
            ))
        if truth.fired != seen.fired:
            out.append(Divergence(
                baseline=baseline_name, path=path_name, index=index,
                field="fired", expected=list(truth.fired),
                observed=list(seen.fired), payload=elided,
            ))
        if (
            truth.score is not None
            and seen.score is not None
            and abs(truth.score - seen.score) > score_tolerance
        ):
            out.append(Divergence(
                baseline=baseline_name, path=path_name, index=index,
                field="score", expected=truth.score, observed=seen.score,
                payload=elided,
            ))
    return out
