"""Phase 3 in one ``(n, n)`` buffer against the full-matrix oracles.

``upgma`` merges over a condensed triangle and the cophenetic coefficient
reads two condensed halves; :mod:`tests.cluster.full_matrix` keeps the
full-matrix loop and the three-array formula they replaced.  Points are
rounded to one decimal so that equal distances, and so argmin ties, are
common; weights are small integers.
"""

import numpy as np
import pytest

from repro.cluster import (
    Dendrogram,
    condensed_halves,
    euclidean_matrix,
    upgma,
)
from repro.cluster.distance import pack_upper

from . import full_matrix

SEEDS = range(24)


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    dims = int(rng.integers(1, 6))
    points = np.round(rng.normal(scale=0.6, size=(n, dims)), 1)
    weights = rng.integers(1, 6, size=n).astype(np.float64)
    return points, weights


@pytest.mark.parametrize("seed", SEEDS)
def test_linkage_and_coefficient_match_the_full_matrix(seed):
    points, weights = _case(seed)
    n = points.shape[0]
    expected = full_matrix.upgma(points, weights=weights)
    original = pack_upper(euclidean_matrix(points)).copy()
    coph = full_matrix.cophenetic_matrix(expected, n)[
        np.triu_indices(n, k=1)
    ]
    expected_coefficient = full_matrix.cophenetic_correlation(original, coph)

    buffer = euclidean_matrix(points)
    linkage = upgma(points, weights=weights, distances=buffer)
    assert linkage.tobytes() == expected.tobytes()
    dendrogram = Dendrogram(linkage, n)
    assert np.array_equal(dendrogram.cophenetic_condensed(), coph)
    first, second = condensed_halves(buffer)
    assert first.tobytes() == original.tobytes()
    coefficient = dendrogram.cophenetic_correlation(first, out=second)
    assert repr(coefficient) == repr(expected_coefficient)


def test_ties_do_occur():
    """The rounded points give the argmin equal cells to choose from."""
    ties = 0
    for seed in SEEDS:
        points, _ = _case(seed)
        distances = pack_upper(euclidean_matrix(points))
        ties += distances.size - np.unique(distances).size
    assert ties > 1000


@pytest.mark.parametrize("n", [2, 3, 300])
def test_edge_sizes(n):
    points = np.round(np.random.default_rng(n).normal(size=(n, 2)), 1)
    assert np.array_equal(upgma(points), full_matrix.upgma(points))
