"""Closed-loop continual learning: shadow-score and gate-promote signatures.

pSigene's core promise is that signatures are *regenerated* as the
attack corpus evolves (Section I: "the current approach to this process
is manual"), and the ``ext_drift`` bench shows detection decaying when
nobody regenerates them.  This package closes the loop — "retrain by
hand" becomes "retrain, shadow, gate, promote":

1. **Ingest** (:mod:`repro.canary.ledger`) — fresh attack/benign samples
   fold into a content-hashed, versioned corpus ledger.
2. **Refresh** (:mod:`repro.canary.refresh`) — a candidate signature set
   is produced from the pending samples: the warm Θ-only
   :func:`~repro.core.incremental.incremental_update` path normally, a
   full re-bicluster + LR retrain when the measured drift of the fresh
   traffic exceeds a threshold.
3. **Shadow** (:mod:`repro.canary.shadow`) — the candidate is staged
   through :meth:`~repro.serve.store.SignatureStore.stage_json` (never
   published) and mirrored traffic is scored against it while the
   incumbent keeps answering, in process or over a live fleet's data
   port; a conformance-style differential pass proves the live verdicts
   were untouched.
4. **Gate** (:mod:`repro.canary.gate`) — candidate-vs-incumbent deltas
   (TPR on fresh attacks, an FPR budget on benign replay, per-signature
   churn) decide promotion; a rejection is a structured record, not a
   silent drop.
5. **Promote** (:mod:`repro.canary.loop`) — only a gated candidate
   commits, via the store's two-phase ``commit_staged`` or, when the
   round runs against a live fleet, the supervisor's atomic two-phase
   reload; every round lands in a promotion-history manifest under
   ``runs/``.

``repro canary run|status|history`` drives the loop from the CLI; the
whole round is traced (``canary.round`` spans) and counted
(``repro_canary_*`` metrics).  See DESIGN.md §16.
"""

from repro.canary.gate import (
    ChurnReport,
    GateDecision,
    GatePolicy,
    SignatureChurn,
    evaluate_gate,
    signature_churn,
)
from repro.canary.history import (
    HISTORY_SCHEMA,
    HistoryError,
    append_round,
    history_path,
    read_history,
    validate_round,
)
from repro.canary.ledger import CorpusLedger, IngestBatch, LedgerError
from repro.canary.loop import (
    CanaryConfig,
    CanaryLoop,
    CanaryRound,
    TrainingState,
    fresh_attack_batch,
    fresh_benign_batch,
)
from repro.canary.refresh import (
    DriftSignal,
    RefreshOutcome,
    measure_drift,
    rebicluster_update,
    refresh_candidate,
)
from repro.canary.shadow import ShadowReport, shadow_candidate

__all__ = [
    "CanaryConfig",
    "CanaryLoop",
    "CanaryRound",
    "ChurnReport",
    "CorpusLedger",
    "DriftSignal",
    "GateDecision",
    "GatePolicy",
    "HISTORY_SCHEMA",
    "HistoryError",
    "IngestBatch",
    "LedgerError",
    "RefreshOutcome",
    "ShadowReport",
    "SignatureChurn",
    "TrainingState",
    "append_round",
    "evaluate_gate",
    "fresh_attack_batch",
    "fresh_benign_batch",
    "history_path",
    "measure_drift",
    "read_history",
    "rebicluster_update",
    "refresh_candidate",
    "shadow_candidate",
    "signature_churn",
    "validate_round",
]
