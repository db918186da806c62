"""The pSigene pipeline: crawl → features → biclusters → signatures.

This orchestrates the four phases of Figure 1 end to end and is the main
entry point of the library:

>>> from repro.core import PipelineConfig, PSigenePipeline
>>> result = PSigenePipeline(PipelineConfig(n_attack_samples=1500)).run()
>>> score, fired = result.signature_set.evaluate(
...     "id=1' union select 1,2,database()-- -")
>>> score
0.99...

Scale note (documented in DESIGN.md): UPGMA is quadratic in distinct rows,
so clustering runs over duplicate-collapsed prototypes and, beyond
``max_cluster_rows`` prototypes, over a seeded row subsample; every
remaining training sample is then assigned to its nearest bicluster
centroid (within the cluster's own radius), so signature training still
sees the full corpus.  Phase 3 holds one ``(n, n)`` float64 buffer for
its n prototypes: the distances' condensed upper triangle in its first
half, ``upgma``'s working triangle in its second, which then holds the
cophenetic triangle for the coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.bicluster import Bicluster, Biclusterer, BiclusteringResult
from repro.core.generalizer import (
    GeneralizerConfig,
    SignatureGeneralizer,
    SignatureTraining,
)
from repro.core.signature import SignatureSet
from repro.corpus.benign import BenignTrafficGenerator
from repro.corpus.grammar import AttackSample, CorpusGenerator
from repro.crawler.portals import SimulatedWeb
from repro.crawler.session import CrawlSession
from repro.features.definitions import FeatureCatalog
from repro.features.extractor import FeatureExtractor
from repro.features.matrix import FeatureMatrix
from repro.features.pruning import PruningReport, prune
from repro.normalize import Normalizer
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.registry import get_registry
from repro.obs.trace import Tracer


@dataclass
class PipelineConfig:
    """Everything the pipeline needs, with paper-shaped defaults.

    Attributes:
        seed: master seed; all phases derive their RNGs from it.
        n_attack_samples: corpus size (paper: 30,000).
        n_benign_train: benign requests used as the negative class.
        use_crawler: collect samples by actually crawling the simulated
            portals (phase 1) rather than drawing from the generator
            directly; identical corpus, plus crawl noise.
        max_cluster_rows: prototype cap for the UPGMA stage.
        assignment_radius_quantile: member-distance quantile that sets each
            bicluster's assignment radius.
        biclusterer: sample/feature clustering knobs.
        generalizer: signature-training knobs.
        workers: worker processes for phase-2 feature extraction (attack
            and benign matrices); 1 keeps extraction in-process.  Outputs
            are identical either way (see
            :meth:`~repro.features.extractor.FeatureExtractor.extract_many`).
        manifest_dir: directory for the run manifest (phases, timings,
            counts, git version); ``None`` disables manifest emission.
    """

    seed: int = 2012
    n_attack_samples: int = 3000
    n_benign_train: int = 8000
    use_crawler: bool = True
    max_cluster_rows: int = 2500
    assignment_radius_quantile: float = 0.95
    biclusterer: Biclusterer = field(default_factory=Biclusterer)
    generalizer: GeneralizerConfig = field(default_factory=GeneralizerConfig)
    workers: int = 1
    manifest_dir: str | None = None


@dataclass
class PipelineResult:
    """Everything the pipeline produced.

    Attributes:
        samples: the collected attack samples (phase 1).
        matrix: pruned training feature matrix (phase 2).
        pruning: the 477→active-set pruning report (phase 2).
        benign_matrix: benign training matrix over the pruned catalog.
        biclustering: raw biclustering output over the clustered subset.
        biclusters: full-corpus biclusters after nearest-centroid extension.
        trainings: per-signature training diagnostics (phase 4).
        signature_set: the deliverable.
        catalog: the pruned feature catalog.
        trace: exported span tree of the run (``Tracer.export()``).
        manifest_path: where the run manifest was written, when
            :attr:`PipelineConfig.manifest_dir` was set.
    """

    samples: list[AttackSample]
    matrix: FeatureMatrix
    pruning: PruningReport
    benign_matrix: FeatureMatrix
    biclustering: BiclusteringResult
    biclusters: list[Bicluster]
    trainings: list[SignatureTraining]
    signature_set: SignatureSet
    catalog: FeatureCatalog
    trace: dict | None = None
    manifest_path: str | None = None

    def table6(self) -> list[dict[str, int]]:
        """Table VI rows: per-bicluster sample/feature/signature sizes."""
        rows = []
        for training in self.trainings:
            signature = training.signature
            rows.append({
                "bicluster": signature.bicluster_index,
                "samples": signature.training_samples,
                "features_biclustering": signature.bicluster_feature_count,
                "features_signature": signature.n_features,
            })
        return rows


class PSigenePipeline:
    """Runs the four phases; see module docstring for a quickstart."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.normalizer = Normalizer()

    # -- phase 1 -------------------------------------------------------------

    def collect_samples(self) -> list[AttackSample]:
        """Crawl the portals (or draw directly from the generator)."""
        config = self.config
        if config.use_crawler:
            web = SimulatedWeb(
                corpus_size=config.n_attack_samples, seed=config.seed
            )
            report = CrawlSession(web).run()
            return report.samples
        generator = CorpusGenerator(seed=config.seed)
        return generator.generate(config.n_attack_samples)

    # -- phase 2 -------------------------------------------------------------

    def extract_features(
        self, samples: list[AttackSample]
    ) -> tuple[FeatureMatrix, PruningReport, FeatureMatrix, FeatureExtractor]:
        """Full-catalog extraction, pruning, and benign-matrix extraction."""
        config = self.config
        extractor = FeatureExtractor(normalizer=self.normalizer)
        full = extractor.extract_many(
            (s.payload for s in samples),
            sample_ids=[s.sample_id for s in samples],
            workers=config.workers,
        )
        pruned, report = prune(full)
        pruned_extractor = extractor.with_catalog(pruned.catalog)
        benign_trace = BenignTrafficGenerator(seed=config.seed + 1).trace(
            config.n_benign_train, name="benign-train"
        )
        benign = pruned_extractor.extract_many(
            benign_trace.payloads(),
            workers=config.workers,
        )
        return pruned, report, benign, pruned_extractor

    # -- phase 3 -------------------------------------------------------------

    def bicluster(
        self, matrix: FeatureMatrix
    ) -> tuple[BiclusteringResult, list[Bicluster]]:
        """Cluster (a subsample of) the matrix, then extend to all rows."""
        config = self.config
        rng = np.random.default_rng(config.seed + 2)
        n = matrix.n_samples
        if n > config.max_cluster_rows:
            subset = np.sort(
                rng.choice(n, config.max_cluster_rows, replace=False)
            )
        else:
            subset = np.arange(n)
        result = config.biclusterer.fit(matrix.counts[subset])
        extended = self._extend_biclusters(matrix.counts, subset, result)
        return result, extended

    def _extend_biclusters(
        self,
        counts: np.ndarray,
        subset: np.ndarray,
        result: BiclusteringResult,
    ) -> list[Bicluster]:
        """Assign unclustered rows to the nearest bicluster within radius.

        Centroids, radii, and distances all live in the biclusterer's
        transformed space (the space the dendrogram was built in); the raw
        counts are only used for the black-hole re-check.
        """
        quantile = self.config.assignment_radius_quantile
        transformed = self.config.biclusterer.transform_rows(counts)
        extended: list[Bicluster] = []
        centroids: list[np.ndarray] = []
        radii: list[float] = []
        member_sets: list[set[int]] = []
        claimed = np.zeros(counts.shape[0], dtype=bool)

        for bicluster in result.biclusters:
            members = subset[bicluster.sample_indices]
            block = transformed[members]
            centroid = block.mean(axis=0)
            distances = np.linalg.norm(block - centroid, axis=1)
            radius = float(np.quantile(distances, quantile)) if len(
                distances
            ) else 0.0
            centroids.append(centroid)
            radii.append(max(radius, 1e-9))
            member_sets.append(set(int(m) for m in members))
            claimed[members] = True

        if centroids:
            unclaimed = np.nonzero(~claimed)[0]
            if unclaimed.size:
                block = transformed[unclaimed]
                # One centroid at a time: a (rows, centroids, features)
                # difference array would be phase 3's largest allocation.
                distance_matrix = np.column_stack([
                    np.linalg.norm(block - centroid, axis=1)
                    for centroid in centroids
                ])
                nearest = distance_matrix.argmin(axis=1)
                nearest_distance = distance_matrix[
                    np.arange(unclaimed.size), nearest
                ]
                for row, cluster_pos, distance in zip(
                    unclaimed, nearest, nearest_distance
                ):
                    if distance <= radii[cluster_pos] * 1.05:
                        member_sets[cluster_pos].add(int(row))

        for position, bicluster in enumerate(result.biclusters):
            sample_indices = np.array(sorted(member_sets[position]), dtype=int)
            block = counts[sample_indices]
            extended.append(
                Bicluster(
                    index=bicluster.index,
                    sample_indices=sample_indices,
                    feature_indices=bicluster.feature_indices,
                    is_black_hole=self.config.biclusterer.is_black_hole(block),
                )
            )
        return extended

    # -- phase 4 -------------------------------------------------------------

    def generalize(
        self,
        biclusters: list[Bicluster],
        matrix: FeatureMatrix,
        benign: FeatureMatrix,
    ) -> tuple[list[SignatureTraining], SignatureSet]:
        """Train one generalized signature per active bicluster."""
        generalizer = SignatureGeneralizer(self.config.generalizer)
        rng = np.random.default_rng(self.config.seed + 3)
        trainings: list[SignatureTraining] = []
        for bicluster in biclusters:
            if bicluster.is_black_hole or bicluster.n_samples < 2:
                continue
            trainings.append(
                generalizer.train(
                    bicluster,
                    matrix.counts,
                    benign.counts,
                    matrix.catalog,
                    rng=rng,
                )
            )
        signature_set = SignatureSet(
            [t.signature for t in trainings], normalizer=self.normalizer
        )
        return trainings, signature_set

    # -- orchestration ---------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute all four phases and return the full result.

        The whole run is traced: each phase is a named span under
        ``pipeline.run``, instrumented library calls underneath
        (``features.extract_many``, ``cluster.linkage``, ...) nest as
        children, and the exported tree lands on
        :attr:`PipelineResult.trace`.  With
        :attr:`PipelineConfig.manifest_dir` set, a validated run
        manifest is also written and its path recorded.
        """
        config = self.config
        tracer = Tracer(registry=get_registry())
        with tracer.activate(), tracer.span(
            "pipeline.run",
            seed=config.seed,
            n_attack_samples=config.n_attack_samples,
            workers=config.workers,
        ):
            with tracer.span("phase.crawl", use_crawler=config.use_crawler):
                samples = self.collect_samples()
            with tracer.span("phase.features") as features_span:
                matrix, pruning, benign, _extractor = self.extract_features(
                    samples
                )
                features_span.set(
                    features_initial=pruning.initial_features,
                    features_kept=pruning.final_features,
                )
            with tracer.span("phase.bicluster") as bicluster_span:
                biclustering, biclusters = self.bicluster(matrix)
                bicluster_span.set(biclusters=len(biclusters))
            with tracer.span("phase.generalize") as generalize_span:
                trainings, signature_set = self.generalize(
                    biclusters, matrix, benign
                )
                generalize_span.set(signatures=len(signature_set))
        result = PipelineResult(
            samples=samples,
            matrix=matrix,
            pruning=pruning,
            benign_matrix=benign,
            biclustering=biclustering,
            biclusters=biclusters,
            trainings=trainings,
            signature_set=signature_set,
            catalog=matrix.catalog,
            trace=tracer.export(),
        )
        if config.manifest_dir is not None:
            result.manifest_path = self._write_manifest(tracer, result)
        return result

    def _write_manifest(
        self, tracer: Tracer, result: PipelineResult
    ) -> str:
        """Emit the run manifest; returns the written path."""
        config = self.config
        manifest = build_manifest(
            seed=config.seed,
            config={
                "n_attack_samples": config.n_attack_samples,
                "n_benign_train": config.n_benign_train,
                "use_crawler": config.use_crawler,
                "max_cluster_rows": config.max_cluster_rows,
                "workers": config.workers,
            },
            phases=tracer.phase_summaries(),
            counts={
                "samples": len(result.samples),
                "features": len(result.catalog),
                "biclusters": len(result.biclusters),
                "signatures": len(result.signature_set),
            },
            trace=result.trace,
        )
        return write_manifest(manifest, config.manifest_dir)
