"""Two-way biclustering over the sample-by-feature matrix.

Section II-C: "The way biclustering worked is first it did a clustering of
the samples and then within each cluster, it clustered by the features.
Thus, it identified what were the discriminating features for each
cluster."  Selection follows Section III-D: "We visually identified eleven
biclusters from the heatmap using a rule of 5%.  That is, for any bicluster
we selected ... it would have to include at least 5% of all samples in the
training dataset" and black holes — biclusters whose sample rows are >99%
zeros across the features — produce no signature.

The "visual identification" step is necessarily replaced by an algorithmic
equivalent: the sample dendrogram is cut at the finest level at which every
kept cluster still holds ≥5% of the samples (samples falling outside kept
clusters are the uncovered noise the paper describes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.dendrogram import Dendrogram
from repro.cluster.distance import (
    condense,
    euclidean_matrix,
    unique_rows_with_weights,
)
from repro.cluster.linkage import upgma
from repro.obs import trace
from repro.obs.registry import get_registry

#: Paper constants.  The 5% selection rule is Section III-D verbatim.
#: Black holes are "biclusters composed of vectors of mostly zeroes"; the
#: paper quantifies that as >99% zeros over its 159 hand-curated features.
#: Our active catalog retains generic symbol features (quotes, equals,
#: digits) that even a bare probe like ``id=891'`` matches, so the
#: equivalent test here is row-based: a vector is "mostly zeroes" when it
#: matches at most ``BLACK_HOLE_ROW_FEATURES`` features (bare probes match
#: 3–5; the sparsest real attack rows match 7+), and a bicluster is a black
#: hole when at least ``BLACK_HOLE_ROW_FRACTION`` of its rows are such
#: vectors.
MIN_SAMPLE_FRACTION = 0.05
BLACK_HOLE_ROW_FEATURES = 5
BLACK_HOLE_ROW_FRACTION = 0.60

#: Retained for the ablation benches: the paper's literal all-cells rule.
BLACK_HOLE_ZERO_FRACTION = 0.94


def is_black_hole_block(
    block: np.ndarray,
    *,
    row_features: int = BLACK_HOLE_ROW_FEATURES,
    row_fraction: float = BLACK_HOLE_ROW_FRACTION,
) -> bool:
    """The mostly-zero-vectors test over one bicluster's sample rows."""
    block = np.asarray(block)
    if block.size == 0:
        return True
    mostly_zero = (block > 0).sum(axis=1) <= row_features
    return bool(mostly_zero.mean() >= row_fraction)


@dataclass
class Bicluster:
    """One selected bicluster.

    Attributes:
        index: 1-based bicluster number (paper numbers them 1..11).
        sample_indices: row indices (into the training matrix) it covers.
        feature_indices: the discriminating feature columns.
        is_black_hole: true when the block is >99% zeros (no signature).
    """

    index: int
    sample_indices: np.ndarray
    feature_indices: np.ndarray
    is_black_hole: bool

    @property
    def n_samples(self) -> int:
        """Number of samples in the bicluster (Table VI column 2)."""
        return int(self.sample_indices.size)

    @property
    def n_features(self) -> int:
        """Number of discriminating features (Table VI column 3)."""
        return int(self.feature_indices.size)


@dataclass
class BiclusteringResult:
    """Everything downstream consumers need.

    Attributes:
        biclusters: the selected biclusters, largest first.
        sample_dendrogram: dendrogram over *prototype* rows.
        prototype_inverse: maps each original row to its prototype leaf.
        prototype_weights: multiplicity of each prototype.
        cophenetic_correlation: tree-fidelity measure (paper: 0.92).
        uncovered: original-row indices not in any selected bicluster.
    """

    biclusters: list[Bicluster]
    sample_dendrogram: Dendrogram
    prototype_inverse: np.ndarray
    prototype_weights: np.ndarray
    cophenetic_correlation: float
    uncovered: np.ndarray

    def active(self) -> list[Bicluster]:
        """Biclusters that generate signatures (black holes excluded)."""
        return [b for b in self.biclusters if not b.is_black_hole]


class Biclusterer:
    """Runs the paper's two-way HAC biclustering.

    Args:
        min_fraction: the 5% selection rule.
        black_hole_zero_fraction: the >99% zero rule.
        max_biclusters: upper bound on how many clusters selection may keep
            (the paper kept eleven).
        black_hole_mode: ``rows`` (default) uses the mostly-zero-vectors
            test of :func:`is_black_hole_block`; ``cells`` uses the paper's
            literal all-cells fraction against
            ``black_hole_zero_fraction`` (kept for the ablation bench).
        feature_presence_threshold: a feature is a *candidate* for a
            cluster's feature set when it appears in at least this fraction
            of the cluster's samples.
        feature_groups: number of feature-side HAC groups evaluated per
            sample cluster.
        transform: pre-distance row transform: ``log1p`` (default — damps
            the dominance of high-count symbol features), ``raw``, or
            ``binary``.
        split_gap: optional separation requirement for the adaptive cut:
            a parent merge must exceed ``split_gap`` times its children's
            heights to count as a block boundary.  The default 1.0
            disables the test — subdivision continues while both children
            satisfy the 5% rule, and selection keeps the
            ``max_biclusters`` largest blocks, matching the paper's count
            of eleven.
        row_normalize: L2-normalize rows before the Euclidean distance.
            Euclidean distance between unit vectors is a monotone function
            of cosine similarity, so the linkage is still built on
            "Euclidean pairwise distance" as Section II-C states, but the
            block structure reflects feature *profiles* rather than payload
            length — which is what the paper's heatmap exhibits.
    """

    def __init__(
        self,
        *,
        min_fraction: float = MIN_SAMPLE_FRACTION,
        black_hole_mode: str = "rows",
        black_hole_zero_fraction: float = BLACK_HOLE_ZERO_FRACTION,
        max_biclusters: int = 11,
        feature_presence_threshold: float = 0.30,
        feature_groups: int = 4,
        transform: str = "log1p",
        row_normalize: bool = True,
        split_gap: float = 1.0,
    ) -> None:
        if not 0 < min_fraction < 1:
            raise ValueError("min_fraction must be in (0, 1)")
        if transform not in ("log1p", "raw", "binary"):
            raise ValueError(f"unknown transform {transform!r}")
        if black_hole_mode not in ("rows", "cells"):
            raise ValueError(f"unknown black_hole_mode {black_hole_mode!r}")
        self.min_fraction = min_fraction
        self.black_hole_mode = black_hole_mode
        self.black_hole_zero_fraction = black_hole_zero_fraction
        self.max_biclusters = max_biclusters
        self.feature_presence_threshold = feature_presence_threshold
        self.feature_groups = feature_groups
        self.transform = transform
        self.row_normalize = row_normalize
        if split_gap < 1.0:
            raise ValueError("split_gap must be >= 1.0")
        self.split_gap = split_gap

    def transform_rows(self, counts: np.ndarray) -> np.ndarray:
        """Row transform applied before the pairwise distances (see class docs)."""
        if self.transform == "log1p":
            values = np.log1p(counts)
        elif self.transform == "binary":
            values = (counts > 0).astype(np.float64)
        else:
            values = counts.astype(np.float64)
        if self.row_normalize:
            norms = np.linalg.norm(values, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            values = values / norms
        return values

    def is_black_hole(self, block: np.ndarray) -> bool:
        """Black-hole test under the configured mode."""
        if self.black_hole_mode == "cells":
            return float(np.mean(np.asarray(block) == 0)) >= (
                self.black_hole_zero_fraction
            )
        return is_black_hole_block(block)

    # -- sample-side clustering ---------------------------------------------

    def fit(self, counts: np.ndarray) -> BiclusteringResult:
        """Bicluster a ``(n_samples, n_features)`` count matrix."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2 or counts.shape[0] < 4:
            raise ValueError("need a 2-D matrix with at least 4 samples")
        prototypes, weights, inverse = unique_rows_with_weights(
            self.transform_rows(counts)
        )
        if prototypes.shape[0] < 2:
            raise ValueError("all samples identical; nothing to cluster")
        # One (n, n) matrix at a time: upgma works in the distances, so the
        # cophenetic coefficient keeps their condensed upper triangle.
        distances = euclidean_matrix(prototypes)
        condensed = condense(distances)
        # UPGMA is the quadratic heart of phase 3 — it gets its own span
        # and a registry histogram so scaling work can watch it directly.
        # The histogram times the build itself: outside an active tracer
        # the span is unrecorded and its wall_s stays 0.
        with trace.span(
            "cluster.linkage", prototypes=int(prototypes.shape[0]),
        ):
            started = time.perf_counter()
            linkage = upgma(prototypes, weights=weights, distances=distances)
            linkage_s = time.perf_counter() - started
        del distances
        get_registry().histogram(
            "repro_cluster_linkage_seconds",
            "Wall time of one UPGMA linkage build.",
        ).observe(linkage_s)
        dendrogram = Dendrogram(linkage, prototypes.shape[0])
        cophenetic = dendrogram.cophenetic_correlation(condensed)

        labels = self._select_cut(dendrogram, weights)
        total_weight = weights.sum()
        biclusters: list[Bicluster] = []
        covered = np.zeros(counts.shape[0], dtype=bool)
        cluster_order = self._clusters_by_size(labels, weights)
        for number, cluster_label in enumerate(cluster_order, start=1):
            if len(biclusters) >= self.max_biclusters:
                break
            proto_mask = labels == cluster_label
            weight = weights[proto_mask].sum()
            if weight / total_weight < self.min_fraction:
                continue
            sample_mask = proto_mask[inverse]
            sample_indices = np.nonzero(sample_mask)[0]
            sub = counts[sample_indices, :]
            feature_indices = self._feature_side(sub)
            biclusters.append(
                Bicluster(
                    index=number,
                    sample_indices=sample_indices,
                    feature_indices=feature_indices,
                    is_black_hole=self.is_black_hole(sub),
                )
            )
            covered[sample_indices] = True

        return BiclusteringResult(
            biclusters=biclusters,
            sample_dendrogram=dendrogram,
            prototype_inverse=inverse,
            prototype_weights=weights,
            cophenetic_correlation=cophenetic,
            uncovered=np.nonzero(~covered)[0],
        )

    def _select_cut(
        self, dendrogram: Dendrogram, weights: np.ndarray
    ) -> np.ndarray:
        """Per-branch adaptive cut: the stand-in for visual identification.

        A single global cut height cannot reproduce what a human reading
        the heatmap does — blocks sit at different dendrogram depths.  The
        tree is walked top-down instead:

        * a node splits when both children hold ≥``min_fraction`` of the
          weight *and* the merge is a real boundary — its height clearly
          exceeds the children's own internal heights (``split_gap``);
        * a thin fringe child (<5%) is dropped as uncovered noise and the
          walk continues into the heavy child — thin stripes never stop
          the subdivision of a large block;
        * otherwise the node is a final bicluster.

        Every final cluster satisfies the 5% rule; homogeneous blocks stay
        whole because no internal merge clears the gap test.
        """
        n = dendrogram.n_leaves
        total = weights.sum()
        min_weight = self.min_fraction * total
        split_gap = self.split_gap

        def subtree_weight(cid: int) -> float:
            return float(weights[dendrogram.members_of(cid)].sum())

        def height(cid: int) -> float:
            if cid < n:
                return 0.0
            return float(dendrogram.linkage[cid - n, 2])

        final: list[int] = []
        stack = [2 * n - 2]
        while stack:
            cid = stack.pop()
            if cid < n:
                final.append(cid)
                continue
            step = cid - n
            left = int(dendrogram.linkage[step, 0])
            right = int(dendrogram.linkage[step, 1])
            weight_left = subtree_weight(left)
            weight_right = subtree_weight(right)
            child_height = max(height(left), height(right))
            separated = height(cid) > split_gap * child_height
            if separated and weight_left >= min_weight and (
                weight_right >= min_weight
            ):
                stack.append(left)
                stack.append(right)
            elif weight_left >= min_weight > weight_right:
                stack.append(left)  # drop the thin right fringe
            elif weight_right >= min_weight > weight_left:
                stack.append(right)
            else:
                final.append(cid)

        labels = np.full(n, -1, dtype=int)
        for cluster_number, cid in enumerate(final):
            labels[dendrogram.members_of(cid)] = cluster_number
        # Uncovered fringes get their own throwaway labels so downstream
        # bincounts stay valid; they never reach the 5% bar.
        fringe = np.nonzero(labels < 0)[0]
        labels[fringe] = len(final) + np.arange(fringe.size)
        return labels

    @staticmethod
    def _clusters_by_size(
        labels: np.ndarray, weights: np.ndarray
    ) -> list[int]:
        sizes = np.bincount(labels, weights=weights)
        return list(np.argsort(-sizes))

    # -- feature-side clustering ---------------------------------------------

    def _feature_side(self, sub: np.ndarray) -> np.ndarray:
        """Discriminating features of one sample cluster.

        Columns active in at least ``feature_presence_threshold`` of the
        cluster's rows are candidates; HAC over the candidates' column
        profiles groups correlated features, and groups whose mean presence
        is high are kept.  This is the "within each cluster, it clustered by
        the features" step.
        """
        presence = (sub > 0).mean(axis=0)
        candidates = np.nonzero(presence >= self.feature_presence_threshold)[0]
        if candidates.size == 0:
            # Black-hole-like cluster: fall back to the most present columns.
            candidates = np.argsort(-presence)[: min(8, sub.shape[1])]
            candidates = candidates[presence[candidates] > 0]
            return np.sort(candidates)
        if candidates.size <= 3:
            return np.sort(candidates)

        profiles = sub[:, candidates].T.astype(np.float64)
        # Standardize profiles so grouping reflects co-occurrence shape,
        # not raw magnitude.
        mean = profiles.mean(axis=1, keepdims=True)
        std = profiles.std(axis=1, keepdims=True)
        std[std == 0] = 1.0
        profiles = (profiles - mean) / std
        linkage = upgma(profiles)
        dendrogram = Dendrogram(linkage, candidates.size)
        groups = min(self.feature_groups, candidates.size)
        group_labels = dendrogram.cut_to_k(groups)

        kept: list[int] = []
        for group in np.unique(group_labels):
            group_columns = candidates[group_labels == group]
            group_presence = (sub[:, group_columns] > 0).mean()
            if group_presence >= self.feature_presence_threshold:
                kept.extend(int(c) for c in group_columns)
        if not kept:
            kept = [int(c) for c in candidates]
        return np.array(sorted(kept), dtype=int)
