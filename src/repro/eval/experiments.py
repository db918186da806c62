"""Experiment drivers: one function per paper table/figure.

Each function regenerates the corresponding artifact from scratch given an
:class:`EvaluationContext`; the benchmarks in ``benchmarks/`` call these
and print the rows next to the paper's numbers (recorded in
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.incremental import incremental_update
from repro.core.pipeline import PipelineConfig, PipelineResult, PSigenePipeline
from repro.core.signature import SignatureSet
from repro.eval.datasets import TestDatasets, build_test_datasets
from repro.features.definitions import SOURCES, build_catalog
from repro.http.traffic import Trace
from repro.ids.engine import Detector, PSigeneDetector, SignatureEngine
from repro.ids.rulesets import (
    build_bro_ruleset,
    build_merged_snort_et_ruleset,
    build_modsec_ruleset,
)
from repro.learn.metrics import Confusion, RocCurve, confusion_from_alerts, roc_curve
from repro.perdisci import PerdisciSystem


@dataclass
class EvaluationContext:
    """A trained pipeline plus the three test datasets.

    Attributes:
        pipeline: the pipeline object (kept for incremental updates).
        result: the completed training run.
        datasets: SQLmap / Arachni / benign test traces.
    """

    pipeline: PSigenePipeline
    result: PipelineResult
    datasets: TestDatasets
    _score_cache: dict[tuple[int, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(
        cls,
        *,
        seed: int = 2012,
        n_attack_samples: int = 3000,
        n_benign_train: int = 8000,
        n_benign_test: int = 50_000,
        max_cluster_rows: int = 2500,
        n_vulnerabilities: int = 136,
        workers: int = 1,
        config: PipelineConfig | None = None,
    ) -> "EvaluationContext":
        """Train pSigene and generate the test sets."""
        if config is None:
            config = PipelineConfig(
                seed=seed,
                n_attack_samples=n_attack_samples,
                n_benign_train=n_benign_train,
                max_cluster_rows=max_cluster_rows,
                workers=workers,
            )
        pipeline = PSigenePipeline(config)
        result = pipeline.run()
        datasets = build_test_datasets(
            seed=seed + 100,
            n_benign=n_benign_test,
            n_vulnerabilities=n_vulnerabilities,
        )
        return cls(pipeline=pipeline, result=result, datasets=datasets)

    # -- shared scoring --------------------------------------------------------

    def signature_scores(
        self, signature_set: SignatureSet, trace: Trace
    ) -> np.ndarray:
        """(n_requests, n_signatures) probability matrix, cached per trace."""
        key = (id(signature_set), trace.name)
        cached = self._score_cache.get(key)
        if cached is not None:
            return cached
        scores = np.vstack([
            signature_set.probabilities(payload)
            for payload in trace.payloads()
        ]) if len(trace) else np.zeros((0, len(signature_set)))
        self._score_cache[key] = scores
        return scores

    def psigene_sets(self) -> tuple[SignatureSet, SignatureSet]:
        """The 9- and 7-signature sets of Experiment 1.

        The paper's 7-set is biclusters 1–7 (the largest); the 9-set adds
        the two smaller ones (8 and 11 there).
        """
        full = self.result.signature_set
        indices = sorted(s.bicluster_index for s in full)
        nine = full.subset(indices[:9])
        seven = full.subset(indices[:7])
        return nine, seven


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1_vulnerability_coverage(context: EvaluationContext) -> dict:
    """Table I + the Section II-A coverage heuristic."""
    from repro.corpus.vulndb import TABLE1_RECORDS, coverage, july_2012_cohort

    records = july_2012_cohort()
    covered = coverage(records, context.result.samples)
    return {
        "table1_rows": [
            {"vulnerability": r.product, "cve": r.cve_id}
            for r in TABLE1_RECORDS
        ],
        "cohort_size": len(records),
        "covered": sum(covered.values()),
        "coverage": covered,
    }


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

def table2_feature_sources() -> list[dict]:
    """Feature-source inventory (initial catalog, per Table II)."""
    catalog = build_catalog()
    counts = catalog.source_counts()
    examples = {
        source: [d.pattern for d in catalog.by_source(source)[:3]]
        for source in SOURCES
    }
    return [
        {
            "source": source,
            "features": counts[source],
            "examples": examples[source],
        }
        for source in SOURCES
    ]


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------

def table3_signature_features(
    context: EvaluationContext, bicluster_index: int = 6
) -> dict:
    """Feature list + Θ of one signature (the paper prints signature 6)."""
    for signature in context.result.signature_set:
        if signature.bicluster_index == bicluster_index:
            return {
                "bicluster": bicluster_index,
                "features": [
                    {"number": d.index, "pattern": d.pattern, "label": d.label}
                    for d in signature.features
                ],
                "theta": [float(v) for v in signature.model.theta],
                "describe": signature.describe(),
            }
    raise KeyError(f"no signature for bicluster {bicluster_index}")


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------

def table4_ruleset_comparison() -> list[dict]:
    """Ruleset statistics: counts, enabled %, regex usage %."""
    from repro.ids.rulesets.emerging_threats import generate_et_rules
    from repro.ids.rules import DeterministicRuleSet
    from repro.ids.rulesets.snort import SNORT_RULES

    bro = build_bro_ruleset()
    snort = DeterministicRuleSet("snort", list(SNORT_RULES))
    et = DeterministicRuleSet("emerging-threats", generate_et_rules())
    modsec = build_modsec_ruleset()
    rows = []
    for ruleset in (bro, snort, et, modsec):
        rows.append({
            "rules": ruleset.name,
            "sqli_rules": ruleset.total_rules,
            "enabled_pct": round(100 * ruleset.enabled_fraction, 1),
            "regex_pct": round(100 * ruleset.regex_fraction, 1),
            "avg_pattern_len": round(ruleset.average_pattern_length(), 1),
        })
    return rows


# ---------------------------------------------------------------------------
# Table V (Experiment 1)
# ---------------------------------------------------------------------------

def _evaluate_detector(
    detector: Detector, datasets: TestDatasets
) -> dict:
    engine = SignatureEngine(detector)
    sqlmap_run = engine.run(datasets.sqlmap)
    arachni_run = engine.run(datasets.arachni)
    benign_run = engine.run(datasets.benign)
    sqlmap_conf = confusion_from_alerts(
        sqlmap_run.alert_flags, benign_run.alert_flags
    )
    arachni_conf = confusion_from_alerts(
        arachni_run.alert_flags, benign_run.alert_flags
    )
    return {
        "rules": detector.name,
        "tpr_sqlmap": sqlmap_conf.tpr,
        "tpr_arachni": arachni_conf.tpr,
        "fpr": sqlmap_conf.fpr,
        "false_alarms": int(benign_run.alert_flags.sum()),
    }


def table5_accuracy(context: EvaluationContext) -> list[dict]:
    """Experiment 1: accuracy of all five systems, Table V's rows."""
    nine, seven = context.psigene_sets()
    detectors: list[Detector] = [
        build_modsec_ruleset(),
        PSigeneDetector(nine, name=f"psigene({len(nine)} signatures)"),
        PSigeneDetector(seven, name=f"psigene({len(seven)} signatures)"),
        build_merged_snort_et_ruleset(),
        build_bro_ruleset(),
    ]
    rows = [
        _evaluate_detector(detector, context.datasets)
        for detector in detectors
    ]
    rows.sort(key=lambda r: -r["tpr_sqlmap"])
    return rows


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------

def figure3_roc(context: EvaluationContext) -> dict[int, RocCurve]:
    """Per-signature ROC curves over the combined attack test data."""
    full = context.result.signature_set
    attacks = context.datasets.sqlmap.merged(
        context.datasets.arachni, name="attacks-all"
    )
    attack_scores = context.signature_scores(full, attacks)
    benign_scores = context.signature_scores(full, context.datasets.benign)
    curves: dict[int, RocCurve] = {}
    for column, signature in enumerate(full):
        curves[signature.bicluster_index] = roc_curve(
            attack_scores[:, column], benign_scores[:, column]
        )
    return curves


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------

def figure4_cumulative_tpr(context: EvaluationContext) -> list[dict]:
    """Cumulative TPR as signatures are added best-first."""
    full = context.result.signature_set
    attacks = context.datasets.sqlmap.merged(
        context.datasets.arachni, name="attacks-all"
    )
    scores = context.signature_scores(full, attacks)
    thresholds = np.array([s.threshold for s in full])
    fired = scores >= thresholds[None, :]
    individual = fired.mean(axis=0)
    order = np.argsort(-individual)
    covered = np.zeros(scores.shape[0], dtype=bool)
    rows: list[dict] = []
    for position, column in enumerate(order, start=1):
        before = covered.mean()
        covered |= fired[:, column]
        after = covered.mean()
        rows.append({
            "rank": position,
            "signature": full[int(column)].bicluster_index,
            "individual_tpr": float(individual[column]),
            "marginal": float(after - before),
            "cumulative_tpr": float(after),
        })
    return rows


# ---------------------------------------------------------------------------
# Table VI
# ---------------------------------------------------------------------------

def table6_cluster_details(context: EvaluationContext) -> list[dict]:
    """Per-bicluster sample/feature counts (Table VI)."""
    return context.result.table6()


# ---------------------------------------------------------------------------
# Experiment 2: incremental learning
# ---------------------------------------------------------------------------

def experiment2_incremental(
    context: EvaluationContext, fractions: tuple[float, ...] = (0.2, 0.4)
) -> list[dict]:
    """Retrain Θ with 20%/40% of the SQLmap set folded into training."""
    rows: list[dict] = []
    base_nine, _ = context.psigene_sets()
    baseline = _evaluate_detector(
        PSigeneDetector(base_nine, name="baseline"), context.datasets
    )
    rows.append({
        "added_fraction": 0.0,
        "tpr_sqlmap": baseline["tpr_sqlmap"],
        "fpr": baseline["fpr"],
    })
    for fraction in fractions:
        fresh = context.datasets.sqlmap.subsample(
            fraction, seed=int(fraction * 1000)
        )
        update = incremental_update(
            context.pipeline, context.result, fresh.payloads()
        )
        indices = sorted(
            s.bicluster_index for s in update.signature_set
        )[:9]
        nine = update.signature_set.subset(indices)
        row = _evaluate_detector(
            PSigeneDetector(nine, name=f"psigene+{fraction:.0%}"),
            context.datasets,
        )
        rows.append({
            "added_fraction": fraction,
            "tpr_sqlmap": row["tpr_sqlmap"],
            "fpr": row["fpr"],
        })
    return rows


# ---------------------------------------------------------------------------
# Experiment 3: Perdisci comparison
# ---------------------------------------------------------------------------

def experiment3_perdisci(
    context: EvaluationContext, *, max_training: int = 700
) -> dict:
    """Train the Perdisci baseline on the same corpus; measure both ways."""
    payloads = [s.payload for s in context.result.samples]
    system = PerdisciSystem(max_training=max_training, seed=1)
    report = system.fit(payloads)

    attacks = context.datasets.sqlmap.merged(
        context.datasets.arachni, name="attacks-all"
    )
    attack_alerts = [system.inspect(p).alert for p in attacks.payloads()]
    benign_alerts = [
        system.inspect(p).alert for p in context.datasets.benign.payloads()
    ]
    confusion = confusion_from_alerts(attack_alerts, benign_alerts)

    rng = np.random.default_rng(1)
    if len(payloads) > max_training:
        picked = rng.choice(len(payloads), max_training, replace=False)
        training_payloads = [payloads[i] for i in sorted(picked)]
    else:
        training_payloads = payloads
    train_tpr = float(np.mean(
        [system.inspect(p).alert for p in training_payloads]
    ))
    return {
        "fine_grained_clusters": report.fine_grained.k,
        "clusters_after_filter": report.clusters_after_filter,
        "final_signatures": len(report.signatures),
        "tpr": confusion.tpr,
        "fpr": confusion.fpr,
        "train_on_train_tpr": train_tpr,
    }


# ---------------------------------------------------------------------------
# Experiment 4: performance
# ---------------------------------------------------------------------------

def experiment4_performance(
    context: EvaluationContext, *, sample_requests: int = 1500
) -> list[dict]:
    """Per-request processing time of pSigene vs ModSec vs Bro.

    Measured on the reference per-signature loop: the paper's Table VI
    profiles a straightforward regex-per-feature evaluator, and the
    fused engine (DESIGN.md §14) is fast enough to invert the paper's
    ordering. Its speedup is reported separately in BENCH_matching.json.
    """
    nine, _ = context.psigene_sets()
    subset = Trace(
        name="sqlmap-perf",
        requests=list(context.datasets.sqlmap.requests[:sample_requests]),
    )
    rows: list[dict] = []
    for detector in (
        PSigeneDetector(nine.reference(), name="psigene"),
        build_modsec_ruleset(),
        build_bro_ruleset(),
    ):
        run = SignatureEngine(detector).run(subset, measure_time=True)
        low, mean, high = run.timing_summary_us()
        rows.append({
            "detector": detector.name,
            "min_us": round(low, 1),
            "avg_us": round(mean, 1),
            "max_us": round(high, 1),
        })
    base = rows[0]["avg_us"]
    for row in rows:
        row["slowdown_vs_this"] = (
            round(base / row["avg_us"], 1) if row["avg_us"] else float("inf")
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------

def figure2_heatmap(context: EvaluationContext):
    """Heatmap data + text rendering over the clustered subsample."""
    from repro.cluster.heatmap import build_heatmap, render_text

    config = context.pipeline.config
    matrix = context.result.matrix
    rng = np.random.default_rng(config.seed + 2)
    n = matrix.n_samples
    if n > config.max_cluster_rows:
        subset = np.sort(
            rng.choice(n, config.max_cluster_rows, replace=False)
        )
    else:
        subset = np.arange(n)
    heatmap = build_heatmap(
        matrix.counts[subset], context.result.biclustering
    )
    return heatmap, render_text(heatmap)
