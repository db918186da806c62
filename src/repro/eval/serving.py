"""Online/offline parity: does the gateway answer exactly like the
offline engine?

The serving path adds queueing, snapshotting, and wire framing around
the very same ``detector.inspect`` call the offline
:class:`~repro.ids.engine.SignatureEngine` makes, so for a fixed trace
the alert flags, matched sids, and scores must agree bit-for-bit.  This
module is the referee: it renders offline ground truth and diffs gateway
responses against it (used by the round-trip tests and by
``repro loadgen --check-parity``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ids.engine import Detector
from repro.ids.rules import Detection

__all__ = ["ParityReport", "offline_detections", "parity_of_responses"]


def offline_detections(
    detector: Detector, payloads: list[str]
) -> list[Detection]:
    """Ground truth: inspect every payload directly, in order."""
    return [detector.inspect(payload) for payload in payloads]


@dataclass
class ParityReport:
    """Outcome of one online-vs-offline diff.

    Attributes:
        total: responses compared (sheds, errors and missing responses
            excluded).
        shed: responses refused by admission control (not comparable).
        errors: non-shed error responses (no verdict to compare).
        missing: payloads with no response at all.
        mismatches: indices where verdict, sids, or score disagreed.
    """

    total: int = 0
    shed: int = 0
    errors: int = 0
    missing: int = 0
    mismatches: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every response that is not a shed notice arrived,
        carried a verdict, and matched ground truth."""
        return not (self.mismatches or self.errors or self.missing)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "PARITY" if self.ok else "MISMATCH"
        return (
            f"{verdict}: {self.total} compared, {self.shed} shed, "
            f"{self.errors} errors, {self.missing} missing, "
            f"{len(self.mismatches)} mismatched"
        )


def parity_of_responses(
    offline: list[Detection],
    responses: list[dict | None],
    *,
    score_tolerance: float = 1e-9,
) -> ParityReport:
    """Diff gateway response objects against offline detections.

    ``responses[i]`` is the decoded data-plane object for payload ``i``
    (``None`` when the client never got an answer).  Shed responses are
    counted but not compared — admission control refused them, so there
    is no verdict to check.  Error responses and missing ones are
    counted too, and fail the report.
    """
    if len(offline) != len(responses):
        raise ValueError(
            f"offline/online length mismatch: "
            f"{len(offline)} vs {len(responses)}"
        )
    report = ParityReport()
    for index, (truth, response) in enumerate(zip(offline, responses)):
        if response is None:
            report.missing += 1
            continue
        if response.get("shed"):
            report.shed += 1
            continue
        if "error" in response:
            report.errors += 1
            continue
        report.total += 1
        same = (
            bool(response.get("alert")) == bool(truth.alert)
            and [int(s) for s in response.get("matched", [])]
            == [int(s) for s in truth.matched_sids]
            and abs(float(response.get("score", 0.0)) - float(truth.score))
            <= score_tolerance
        )
        if not same:
            report.mismatches.append(index)
    return report
