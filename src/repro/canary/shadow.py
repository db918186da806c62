"""Shadow stage: score the candidate behind the live set, touch nothing.

The candidate is *staged* — built and warmed through
:meth:`~repro.serve.store.SignatureStore.stage_json`, the same two-phase
entry the fleet reload protocol uses — but never published.  Mirrored
traffic is then scored twice: by the live (incumbent) path for real
verdicts, and by the staged candidate for shadow verdicts.  Two
guarantees fall out, both checked here rather than assumed:

- **The live path is untouched.**  Incumbent verdicts are captured
  *before* staging and diffed against the live verdicts observed after —
  a conformance-style differential pass (same
  :class:`~repro.conformance.verdict.Verdict` normal form, same
  :func:`~repro.conformance.verdict.diff_verdicts`) whose divergence
  list must be empty.  In store mode the store's detector answers in
  process; in fleet mode the post-stage verdicts travel the fleet's real
  data plane — ``SO_REUSEPORT`` balancing, admission queues, wire
  framing — so the pass covers everything a promotion would ship through.
- **The deltas are measured on labeled traffic.**  Mirrored payloads are
  fresh attacks (TPR) and benign replay (FPR), so the gate sees
  candidate-vs-incumbent deltas, not proxies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.conformance.verdict import (
    Divergence,
    Verdict,
    diff_verdicts,
    serial_verdicts,
    verdicts_from_responses,
)
from repro.serve.store import SignatureStore, StoreError

__all__ = ["ShadowReport", "shadow_candidate"]


@dataclass(frozen=True)
class ShadowReport:
    """What one shadow pass measured.

    Attributes:
        mode: ``store`` (in-process mirror) or ``fleet`` (live data
            plane).
        generation: the staged candidate's generation number.
        n_attacks: labeled fresh-attack payloads mirrored.
        n_benign: labeled benign payloads mirrored.
        incumbent_tpr / candidate_tpr: detection on the fresh attacks.
        incumbent_fpr / candidate_fpr: alert rate on the benign replay.
        verdict_flips: payloads where the candidate's alert bit differs
            from the incumbent's (the churn the gate is pricing).
        divergences: live-vs-baseline disagreements — non-empty means
            staging perturbed the serving path, which by itself must
            fail the gate.
    """

    mode: str
    generation: int
    n_attacks: int
    n_benign: int
    incumbent_tpr: float
    candidate_tpr: float
    incumbent_fpr: float
    candidate_fpr: float
    verdict_flips: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def tpr_delta(self) -> float:
        """Candidate minus incumbent detection on fresh attacks."""
        return self.candidate_tpr - self.incumbent_tpr

    @property
    def fpr_delta(self) -> float:
        """Candidate minus incumbent alert rate on benign replay."""
        return self.candidate_fpr - self.incumbent_fpr

    def to_dict(self) -> dict:
        """JSON-ready form for round records and benches."""
        return {
            "mode": self.mode,
            "generation": self.generation,
            "n_attacks": self.n_attacks,
            "n_benign": self.n_benign,
            "incumbent_tpr": round(self.incumbent_tpr, 6),
            "candidate_tpr": round(self.candidate_tpr, 6),
            "incumbent_fpr": round(self.incumbent_fpr, 6),
            "candidate_fpr": round(self.candidate_fpr, 6),
            "tpr_delta": round(self.tpr_delta, 6),
            "fpr_delta": round(self.fpr_delta, 6),
            "verdict_flips": self.verdict_flips,
            "divergences": len(self.divergences),
        }


def _alert_rate(verdicts: list[Verdict]) -> float:
    if not verdicts:
        return 0.0
    return sum(1 for v in verdicts if v.alert) / len(verdicts)


def _staged_detector(store: SignatureStore, generation: int):
    staged = store.get_staged(generation)
    if staged is None:
        raise StoreError(
            f"no staged candidate for generation {generation}; "
            "stage before shadow-scoring",
            reason="stage",
        )
    return staged.detector


def shadow_candidate(
    store: SignatureStore,
    candidate_json: str,
    *,
    generation: int,
    attacks: list[str],
    benign: list[str],
    source: str = "canary",
    fleet=None,
) -> ShadowReport:
    """Stage *candidate_json* on *store* and mirror traffic behind it.

    The incumbent's verdicts are captured before staging; after staging
    the live path answers again and any disagreement becomes a
    divergence.  Without *fleet* the live path is the store's published
    detector, in process.  With *fleet* — a started
    :class:`~repro.serve.supervisor.FleetSupervisor` whose reference
    store is *store* — the live verdicts travel its shared data port,
    so the differential pass exercises kernel connection balancing,
    per-shard admission and wire framing.  Either way the candidate is
    staged on *store* only, and left staged: the caller's gate decides
    between committing it (``commit_staged``, or the fleet's two-phase
    reload, which re-stages it on every shard) and ``abort_staged``.

    Raises:
        ValueError: in fleet mode, a mirrored payload holds a line break.
        StoreError: the candidate failed to parse, warm, or stage; the
            store is left exactly as it was.
        ConformanceError: in fleet mode, the fleet failed to answer a
            mirrored payload (shed or error under the sized queue bound
            — a serving defect, not a gate signal).
    """
    payloads = list(attacks) + list(benign)
    if fleet is not None:
        from repro.serve.loadgen import replay
        from repro.serve.protocol import encode_line

        # Encoding rejects a payload with a line break before anything
        # is staged (fresh_attack_batch collapses breaks to spaces).
        wires = [encode_line(payload) for payload in payloads]
    baseline = serial_verdicts(store.current().detector, payloads)
    store.stage_json(candidate_json, generation=generation, source=source)
    if fleet is None:
        mode, live_name = "store", "incumbent-live"
        live = serial_verdicts(store.current().detector, payloads)
    else:
        mode, live_name = "fleet", "fleet-live"
        host, port = fleet.data_address
        responses, _latencies, _duration = replay(
            host, port, wires, connections=4, window=32
        )
        live = verdicts_from_responses(responses, "fleet")
    divergences = diff_verdicts(
        "incumbent-prestage", baseline, live_name, live, payloads
    )
    shadow = serial_verdicts(_staged_detector(store, generation), payloads)
    n_attacks = len(attacks)
    return ShadowReport(
        mode=mode,
        generation=generation,
        n_attacks=n_attacks,
        n_benign=len(benign),
        incumbent_tpr=_alert_rate(live[:n_attacks]),
        candidate_tpr=_alert_rate(shadow[:n_attacks]),
        incumbent_fpr=_alert_rate(live[n_attacks:]),
        candidate_fpr=_alert_rate(shadow[n_attacks:]),
        verdict_flips=sum(
            1 for a, b in zip(live, shadow) if a.alert != b.alert
        ),
        divergences=divergences,
    )
