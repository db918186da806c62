"""Tests for the from-scratch UPGMA, cross-validated against scipy."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage as scipy_linkage

from repro.cluster import (
    condensed_halves,
    euclidean_matrix,
    unique_rows_with_weights,
    upgma,
    validate_linkage,
)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).normal(size=(40, 6))


class TestAgainstScipy:
    def test_merge_heights_match(self, points):
        mine = upgma(points)
        reference = scipy_linkage(points, method="average")
        assert np.allclose(
            np.sort(mine[:, 2]), np.sort(reference[:, 2])
        )

    def test_cluster_sizes_match(self, points):
        mine = upgma(points)
        reference = scipy_linkage(points, method="average")
        assert np.allclose(
            np.sort(mine[:, 3]), np.sort(reference[:, 3])
        )

    def test_small_case_exact(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        mine = upgma(points)
        # 0-1 merge at 1, 2-3 merge at 1, then clusters at avg distance 10.
        assert mine[0, 2] == pytest.approx(1.0)
        assert mine[1, 2] == pytest.approx(1.0)
        assert mine[2, 2] == pytest.approx(10.0)


class TestWeightedEquivalence:
    def test_duplicates_as_weights(self, points):
        """Weighted UPGMA over prototypes == plain UPGMA over raw rows."""
        duplicated = np.vstack([points, points[:15]])
        reference = scipy_linkage(duplicated, method="average")
        prototypes, weights, _ = unique_rows_with_weights(duplicated)
        mine = upgma(prototypes, weights=weights)
        reference_heights = np.sort(reference[:, 2])
        reference_heights = reference_heights[reference_heights > 1e-12]
        assert np.allclose(np.sort(mine[:, 2]), reference_heights)

    def test_final_weight_is_total(self, points):
        weights = np.random.default_rng(1).integers(
            1, 5, size=points.shape[0]
        ).astype(float)
        linkage = upgma(points, weights=weights)
        assert linkage[-1, 3] == pytest.approx(weights.sum())


class TestLinkageProperties:
    def test_monotone_heights(self, points):
        linkage = upgma(points)
        assert (np.diff(linkage[:, 2]) >= -1e-12).all()

    def test_validate_accepts_own_output(self, points):
        linkage = upgma(points)
        validate_linkage(linkage, points.shape[0])

    def test_validate_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            validate_linkage(np.zeros((3, 4)), 10)

    def test_validate_rejects_nonmonotone(self):
        bad = np.array([[0, 1, 5.0, 2], [2, 3, 1.0, 3]])
        with pytest.raises(ValueError):
            validate_linkage(bad, 3)

    def test_validate_rejects_future_reference(self):
        bad = np.array([[0, 5, 1.0, 2], [2, 3, 2.0, 3]])
        with pytest.raises(ValueError):
            validate_linkage(bad, 3)


class TestInputValidation:
    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            upgma(np.ones((1, 3)))

    def test_nonsquare_distance_rejected(self):
        with pytest.raises(ValueError):
            upgma(np.ones((3, 2)), distances=np.ones((3, 2)))

    def test_wrong_weight_count_rejected(self, points):
        with pytest.raises(ValueError):
            upgma(points, weights=np.ones(3))

    def test_nonpositive_weights_rejected(self, points):
        weights = np.ones(points.shape[0])
        weights[0] = 0
        with pytest.raises(ValueError):
            upgma(points, weights=weights)

    def test_precomputed_distances_used(self):
        distances = np.array([
            [0.0, 1.0, 9.0],
            [1.0, 0.0, 9.0],
            [9.0, 9.0, 0.0],
        ])
        linkage = upgma(np.zeros((3, 1)), distances=distances)
        assert linkage[0, 2] == pytest.approx(1.0)
        assert linkage[1, 2] == pytest.approx(9.0)

    def test_works_in_the_buffer_it_is_handed(self, points):
        distances = euclidean_matrix(points)
        upper = distances[np.triu_indices(points.shape[0], k=1)]
        expected = upgma(points)
        assert np.array_equal(upgma(points, distances=distances), expected)
        # No copy: the first half keeps the original distances in
        # condensed order, and the merges left the working half all inf.
        original, spare = condensed_halves(distances)
        assert np.array_equal(original, upper)
        assert np.isinf(spare).all()
