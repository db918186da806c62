"""Biclustering substrate: UPGMA HAC, dendrograms, selection, heatmap."""

from repro.cluster.bicluster import (
    BLACK_HOLE_ROW_FEATURES,
    BLACK_HOLE_ROW_FRACTION,
    BLACK_HOLE_ZERO_FRACTION,
    MIN_SAMPLE_FRACTION,
    Bicluster,
    Biclusterer,
    BiclusteringResult,
    is_black_hole_block,
)
from repro.cluster.dendrogram import Dendrogram
from repro.cluster.distance import (
    condensed_halves,
    euclidean_condensed,
    euclidean_matrix,
    unique_rows_with_weights,
)
from repro.cluster.heatmap import (
    HeatmapData,
    build_heatmap,
    render_ppm,
    render_text,
    standardize_columns,
)
from repro.cluster.linkage import upgma, validate_linkage
from repro.cluster.validity import davies_bouldin, silhouette_mean

__all__ = [
    "condensed_halves",
    "euclidean_matrix",
    "euclidean_condensed",
    "unique_rows_with_weights",
    "upgma",
    "validate_linkage",
    "Dendrogram",
    "Bicluster",
    "Biclusterer",
    "BiclusteringResult",
    "MIN_SAMPLE_FRACTION",
    "BLACK_HOLE_ZERO_FRACTION",
    "BLACK_HOLE_ROW_FEATURES",
    "BLACK_HOLE_ROW_FRACTION",
    "is_black_hole_block",
    "HeatmapData",
    "build_heatmap",
    "render_text",
    "render_ppm",
    "standardize_columns",
    "davies_bouldin",
    "silhouette_mean",
]
