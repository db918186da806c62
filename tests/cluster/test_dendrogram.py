"""Tests for dendrogram cutting, ordering, and cophenetic validation."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, fcluster
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import pdist, squareform

from repro.cluster import Dendrogram, euclidean_condensed, upgma

from . import full_matrix


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    # Three well-separated blobs.
    return np.vstack([
        rng.normal(0, 0.3, (10, 4)),
        rng.normal(5, 0.3, (12, 4)),
        rng.normal(-5, 0.3, (8, 4)),
    ])


@pytest.fixture(scope="module")
def dendrogram(points):
    return Dendrogram(upgma(points), points.shape[0])


def cophenetic_matrix(dendrogram):
    """The oracle: the full ``(n, n)`` cophenetic matrix."""
    return full_matrix.cophenetic_matrix(
        dendrogram.linkage, dendrogram.n_leaves
    )


class TestConstruction:
    def test_shape_mismatch_rejected(self, points):
        with pytest.raises(ValueError):
            Dendrogram(upgma(points), points.shape[0] + 1)


class TestMembers:
    def test_leaf_is_itself(self, dendrogram):
        assert dendrogram.members_of(0) == [0]

    def test_root_contains_all(self, dendrogram, points):
        root = 2 * points.shape[0] - 2
        assert sorted(dendrogram.members_of(root)) == list(
            range(points.shape[0])
        )

    def test_merge_members_union(self, dendrogram, points):
        n = points.shape[0]
        for step in range(n - 1):
            left = int(dendrogram.linkage[step, 0])
            right = int(dendrogram.linkage[step, 1])
            merged = set(dendrogram.members_of(n + step))
            assert merged == set(
                dendrogram.members_of(left)
            ) | set(dendrogram.members_of(right))


class TestLeafOrder:
    def test_permutation(self, dendrogram, points):
        order = dendrogram.leaf_order()
        assert sorted(order) == list(range(points.shape[0]))

    def test_blobs_contiguous(self, dendrogram, points):
        """Leaf order must keep each blob's members adjacent."""
        order = dendrogram.leaf_order()
        blob = [0 if i < 10 else (1 if i < 22 else 2) for i in order]
        transitions = sum(
            1 for a, b in zip(blob, blob[1:]) if a != b
        )
        assert transitions == 2


class TestCutting:
    def test_cut_to_k_three_blobs(self, dendrogram, points):
        labels = dendrogram.cut_to_k(3)
        assert len(np.unique(labels)) == 3
        # Blob membership must be pure.
        truth = np.array([0] * 10 + [1] * 12 + [2] * 8)
        for cluster in np.unique(labels):
            assert len(np.unique(truth[labels == cluster])) == 1

    def test_cut_matches_scipy_fcluster(self, points, dendrogram):
        reference = scipy_linkage(points, method="average")
        scipy_labels = fcluster(reference, t=3, criterion="maxclust")
        mine = dendrogram.cut_to_k(3)
        # Same partition up to relabeling.
        for cluster in np.unique(mine):
            scipy_ids = scipy_labels[mine == cluster]
            assert len(np.unique(scipy_ids)) == 1

    def test_cut_k1(self, dendrogram, points):
        assert len(np.unique(dendrogram.cut_to_k(1))) == 1

    def test_cut_kn(self, dendrogram, points):
        n = points.shape[0]
        assert len(np.unique(dendrogram.cut_to_k(n))) == n

    def test_invalid_k(self, dendrogram):
        with pytest.raises(ValueError):
            dendrogram.cut_to_k(0)

    def test_cut_at_height_zero_all_singletons(self, dendrogram, points):
        labels = dendrogram.cut_at_height(-1e-9)
        assert len(np.unique(labels)) == points.shape[0]

    def test_cut_at_max_height_single(self, dendrogram):
        top = dendrogram.linkage[:, 2].max()
        labels = dendrogram.cut_at_height(top + 1)
        assert len(np.unique(labels)) == 1

    def test_labels_dense_from_zero(self, dendrogram):
        labels = dendrogram.cut_to_k(3)
        assert set(labels) == {0, 1, 2}


class TestCophenetic:
    def test_matrix_matches_scipy(self, points, dendrogram):
        reference = scipy_linkage(points, method="average")
        scipy_coph = cophenet(reference)
        mine = dendrogram.cophenetic_condensed()
        assert np.allclose(np.sort(mine), np.sort(scipy_coph))

    def test_condensed_is_the_matrix_upper_triangle(self, points, dendrogram):
        upper = cophenetic_matrix(dendrogram)[
            np.triu_indices(points.shape[0], k=1)
        ]
        assert np.array_equal(dendrogram.cophenetic_condensed(), upper)

    def test_correlation_equals_full_matrix_formula(self, points, dendrogram):
        original = euclidean_condensed(points)
        x = original - original.mean()
        coph = cophenetic_matrix(dendrogram)[
            np.triu_indices(points.shape[0], k=1)
        ]
        y = coph - coph.mean()
        expected = float(
            (x * y).sum() / np.sqrt((x ** 2).sum() * (y ** 2).sum())
        )
        assert dendrogram.cophenetic_correlation(original) == expected

    def test_square_matrix_rejected(self, points, dendrogram):
        with pytest.raises(ValueError):
            dendrogram.cophenetic_correlation(squareform(pdist(points)))

    def test_correlation_matches_scipy(self, points, dendrogram):
        reference = scipy_linkage(points, method="average")
        scipy_corr, _ = cophenet(reference, pdist(points))
        mine = dendrogram.cophenetic_correlation(euclidean_condensed(points))
        assert mine == pytest.approx(scipy_corr, abs=1e-9)

    def test_well_separated_data_high_correlation(self, points, dendrogram):
        # The paper reports 0.92 and calls it "promisingly high"; three
        # blobs with unequal separations land in the same band.
        corr = dendrogram.cophenetic_correlation(euclidean_condensed(points))
        assert corr > 0.85
