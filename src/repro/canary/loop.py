"""The closed loop: ingest → refresh → shadow → gate → promote.

One :meth:`CanaryLoop.run_round` call is one complete continual-learning
round against a single-process :class:`~repro.serve.store.SignatureStore`,
or against a live :class:`~repro.serve.supervisor.FleetSupervisor`
serving that store, where the shadow pass rides the real data plane and
a promotion commits through the fleet's atomic two-phase reload.

The loop owns three invariants the stages cannot each enforce alone:

- **Rejection is cheap and safe.**  An aborted round leaves the
  incumbent signature set, the store version, the training state, *and*
  the ledger's pending queues untouched — the next round retrains on
  everything observed since the last promotion.
- **Promotion is transactional.**  Training state, store generation,
  and ledger consumption advance together, only after the gate clears
  and the staged candidate commits.
- **Every round is recorded.**  A ``canary.round`` span tree, the
  ``repro_canary_*`` counters, and one line in the promotion-history
  manifest — promoted or rejected alike.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.canary.gate import (
    GateDecision,
    GatePolicy,
    evaluate_gate,
    signature_churn,
)
from repro.canary.history import HISTORY_SCHEMA, append_round
from repro.canary.ledger import CorpusLedger
from repro.canary.refresh import refresh_candidate
from repro.canary.shadow import shadow_candidate
from repro.conformance.harness import default_training_config
from repro.core.pipeline import PipelineResult, PSigenePipeline
from repro.core.serialize import signature_set_to_json
from repro.core.signature import SignatureSet
from repro.corpus.benign import BenignTrafficGenerator
from repro.corpus.grammar import CorpusGenerator
from repro.eval.drift import drifted_families
from repro.obs import trace as obs_trace
from repro.obs.registry import get_registry
from repro.serve.store import SignatureStore

__all__ = [
    "CanaryConfig",
    "CanaryLoop",
    "CanaryRound",
    "TrainingState",
    "fresh_attack_batch",
    "fresh_benign_batch",
]


@contextlib.contextmanager
def _stage(walls: dict[str, float], stage: str, **attrs):
    """Time one round stage: a ``canary.<stage>`` span with ``attrs``,
    and its wall seconds in ``walls[stage]`` once it completes."""
    with obs_trace.span(f"canary.{stage}", **attrs):
        started = time.perf_counter()
        yield
        walls[stage] = time.perf_counter() - started


def fresh_attack_batch(
    count: int, *, shift: float = 3.0, seed: int = 0
) -> list[str]:
    """Draw *count* attacks from a drifted family mix.

    The mix comes from :func:`repro.eval.drift.drifted_families` — the
    same re-tilt the drift study uses — so the canary loop's "new
    attacks appeared" stimulus is the one the paper's Section I
    motivates retraining with.

    Grammar mutators emit literal newlines inside payloads, but the
    fleet data plane is line-framed (one payload per line — the
    :meth:`~repro.http.request.HttpRequest.payload` contract), so
    embedded line breaks are collapsed to spaces here.  SQL tokenizers
    treat all whitespace alike, and sanitizing at ingestion means the
    in-process and on-the-wire shadow passes score identical strings.
    """
    families = drifted_families(shift=shift, seed=seed)
    generator = CorpusGenerator(seed=seed + 1000, families=families)
    return [
        sample.payload.replace("\r", " ").replace("\n", " ")
        for sample in generator.generate(count)
    ]


def fresh_benign_batch(count: int, *, seed: int = 0) -> list[str]:
    """Draw *count* benign payloads for FPR replay.

    Static fetches contribute empty payloads — that is the real traffic
    mix, and the FPR denominator should reflect it.
    """
    generator = BenignTrafficGenerator(seed=seed + 3)
    return [request.flat_payload() for request in generator.trace(count).requests]


@dataclass
class TrainingState:
    """The incumbent pipeline and its training result.

    The loop mutates ``result`` only on promotion — the candidate's
    refreshed result is adopted exactly when its signature set becomes
    the live generation, so training state and serving state never
    disagree about what the incumbent is.
    """

    pipeline: PSigenePipeline
    result: PipelineResult

    @classmethod
    def train(cls, seed: int = 2012) -> "TrainingState":
        """Train the canonical small pipeline (the conformance config)."""
        pipeline = PSigenePipeline(default_training_config(seed))
        return cls(pipeline=pipeline, result=pipeline.run())

    @property
    def signature_set(self) -> SignatureSet:
        """The incumbent signature set."""
        return self.result.signature_set


@dataclass(frozen=True)
class CanaryConfig:
    """Knobs for one canary loop.

    Attributes:
        fresh_attacks: attacks drawn per round when none are supplied.
        benign_replay: benign payloads replayed per round for the FPR
            budget check.
        shift: drift magnitude of the generated attack mix.
        seed: base RNG seed; round ``k`` draws with ``seed + k`` so
            rounds differ deterministically.
        drift_threshold: out-of-cluster rate above which refresh
            escalates from the warm path to a full re-bicluster.
        refresh_strategy: ``auto``, ``warm``, or ``rebicluster``.
        policy: promotion-gate budgets.
        runs_dir: directory for the promotion-history manifest; None
            disables history.
        source: provenance stamped on ledger batches and staged
            candidates.
    """

    fresh_attacks: int = 200
    benign_replay: int = 400
    shift: float = 3.0
    seed: int = 0
    drift_threshold: float = 0.5
    refresh_strategy: str = "auto"
    policy: GatePolicy = field(default_factory=GatePolicy)
    runs_dir: str | None = "runs"
    source: str = "canary"


@dataclass(frozen=True)
class CanaryRound:
    """Everything one round decided and measured.

    Attributes:
        index: 0-based round number within this loop.
        outcome: ``promoted`` or ``rejected``.
        mode: ``store`` or ``fleet``.
        strategy: refresh strategy actually used.
        generation_before / generation_after: live store generation
            around the round (equal on rejection).
        ledger_version: ledger version after this round's ingests.
        ingested: per-kind sample counts added this round.
        drift: the measured drift signal that picked the strategy.
        decision: the full gate decision (shadow deltas, churn, policy,
            reasons).
        stage_wall_s: wall seconds per stage
            (``ingest``/``refresh``/``shadow``/``gate``/``promote``).
    """

    index: int
    outcome: str
    mode: str
    strategy: str
    generation_before: int
    generation_after: int
    ledger_version: int
    ingested: dict[str, int]
    drift: dict
    decision: GateDecision
    stage_wall_s: dict[str, float]

    @property
    def promoted(self) -> bool:
        """True iff this round published its candidate."""
        return self.outcome == "promoted"

    def to_dict(self) -> dict:
        """The promotion-history record (schema-stamped)."""
        return {
            "schema": HISTORY_SCHEMA,
            "round": self.index,
            "outcome": self.outcome,
            "mode": self.mode,
            "strategy": self.strategy,
            "generation_before": self.generation_before,
            "generation_after": self.generation_after,
            "ledger_version": self.ledger_version,
            "ingested": dict(self.ingested),
            "reasons": list(self.decision.reasons),
            "drift": dict(self.drift),
            "gate": self.decision.to_dict(),
            "stage_wall_s": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_wall_s.items()
            },
        }


class CanaryLoop:
    """Drives complete rounds against a store or a fleet.

    Args:
        state: incumbent training state (pipeline + result).  The
            mounted store's detector should serve ``state.signature_set``.
        store: the serving store rounds run against.
        config: loop knobs; defaults throughout.
        ledger: corpus ledger; a fresh in-memory one by default.
    """

    def __init__(
        self,
        state: TrainingState,
        store: SignatureStore,
        *,
        config: CanaryConfig | None = None,
        ledger: CorpusLedger | None = None,
    ) -> None:
        self.state = state
        self.store = store
        self.config = config or CanaryConfig()
        self.ledger = ledger or CorpusLedger()
        self.rounds: list[CanaryRound] = []
        registry = get_registry()
        self._rounds_total = registry.counter(
            "repro_canary_rounds_total",
            "Canary rounds completed, promoted or rejected.",
        )
        self._promotions = registry.counter(
            "repro_canary_promotions_total",
            "Canary rounds whose candidate was committed.",
        )
        self._rejections = registry.counter(
            "repro_canary_rejections_total",
            "Canary rounds whose candidate was aborted.",
        )
        self._ingested = registry.counter(
            "repro_canary_ingested_samples_total",
            "Samples added to the corpus ledger by canary ingestion.",
        )
        self._divergences = registry.counter(
            "repro_canary_shadow_divergences_total",
            "Live-path divergences observed during shadow scoring.",
        )
        self._round_seconds = registry.histogram(
            "repro_canary_round_seconds",
            "Wall time of one complete canary round.",
        )

    # -- stages --------------------------------------------------------

    def _ingest(
        self, attacks: list[str] | None, benign: list[str] | None
    ) -> dict[str, int]:
        """Fold this round's traffic into the ledger.

        When the caller supplies no traffic, a deterministic fresh batch
        is drawn (drifted attacks + benign replay) so ``repro canary
        run`` works without an external feed.
        """
        round_seed = self.config.seed + len(self.rounds)
        if attacks is None:
            attacks = fresh_attack_batch(
                self.config.fresh_attacks,
                shift=self.config.shift,
                seed=round_seed,
            )
        if benign is None:
            benign = fresh_benign_batch(
                self.config.benign_replay, seed=round_seed
            )
        ingested = {"attack": 0, "benign": 0}
        if attacks:
            batch = self.ledger.ingest(
                attacks, kind="attack", source=self.config.source
            )
            ingested["attack"] = batch.added
        if benign:
            batch = self.ledger.ingest(
                benign, kind="benign", source=self.config.source
            )
            ingested["benign"] = batch.added
        self._ingested.inc(sum(ingested.values()))
        return ingested

    def _refresh(self):
        return refresh_candidate(
            self.state.pipeline,
            self.state.result,
            self.ledger.pending("attack"),
            drift_threshold=self.config.drift_threshold,
            strategy=self.config.refresh_strategy,
        )

    # -- complete rounds -----------------------------------------------

    def run_round(
        self,
        attacks: list[str] | None = None,
        benign: list[str] | None = None,
        *,
        sabotage: Callable[[SignatureSet], SignatureSet] | None = None,
        fleet=None,
    ) -> CanaryRound:
        """One complete round against the store, or against a live fleet.

        Without ``fleet`` the shadow pass runs in process and a
        promotion commits the staged candidate on the store.  With
        ``fleet`` — a started
        :class:`~repro.serve.supervisor.FleetSupervisor` whose reference
        store is ``self.store`` — the shadow pass mirrors traffic over
        its shared data port, and a promotion commits through
        :meth:`~repro.serve.supervisor.FleetSupervisor.reload_json`: the
        atomic two-phase fleet reload, which re-stages the shadowed
        generation (double-staging replaces cleanly) and flips every
        shard or none.

        Args:
            attacks: fresh attack payloads to ingest; generated when
                None.
            benign: benign payloads to ingest for FPR replay; generated
                when None.
            sabotage: test/CI hook applied to the candidate between
                refresh and shadow — e.g.
                ``lambda s: s.with_threshold(0.05)`` injects an FPR
                budget violation the gate must catch.
            fleet: the fleet serving the store, if any.
        """
        if fleet is not None and fleet.store is not self.store:
            raise ValueError(
                "the supervisor's reference store must be the loop's store"
            )
        mode = "store" if fleet is None else "fleet"
        walls: dict[str, float] = {}
        generation_before = self.store.version
        with obs_trace.span("canary.round", mode=mode):
            with _stage(walls, "ingest"):
                ingested = self._ingest(attacks, benign)
            with _stage(walls, "refresh"):
                outcome = self._refresh()
                candidate = outcome.candidate
                if sabotage is not None:
                    candidate = sabotage(candidate)
                candidate_json = signature_set_to_json(candidate)
            generation = generation_before + 1
            with _stage(walls, "shadow", generation=generation):
                shadow = shadow_candidate(
                    self.store,
                    candidate_json,
                    generation=generation,
                    attacks=self.ledger.pending("attack"),
                    benign=self.ledger.pending("benign"),
                    source=self.config.source,
                    fleet=fleet,
                )
            with _stage(walls, "gate"):
                churn = signature_churn(self.state.signature_set, candidate)
                decision = evaluate_gate(shadow, churn, self.config.policy)
            with _stage(walls, "promote", promoted=decision.promoted):
                if decision.promoted:
                    if fleet is None:
                        self.store.commit_staged(generation)
                    else:
                        fleet.reload_json(
                            candidate_json, source=self.config.source
                        )
                    self.state.result = outcome.result
                    self.ledger.mark_consumed()
                else:
                    self.store.abort_staged(generation)
        completed = CanaryRound(
            index=len(self.rounds),
            outcome="promoted" if decision.promoted else "rejected",
            mode=mode,
            strategy=outcome.strategy,
            generation_before=generation_before,
            generation_after=self.store.version,
            ledger_version=self.ledger.version,
            ingested=ingested,
            drift=outcome.drift.to_dict(),
            decision=decision,
            stage_wall_s=walls,
        )
        self.rounds.append(completed)
        self._rounds_total.inc()
        (self._promotions if completed.promoted else self._rejections).inc()
        self._divergences.inc(len(decision.shadow.divergences))
        self._round_seconds.observe(sum(walls.values()))
        if self.config.runs_dir is not None:
            append_round(completed.to_dict(), runs_dir=self.config.runs_dir)
        return completed
