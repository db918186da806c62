"""Tests for distance computation and prototype collapsing."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from repro.cluster import (
    euclidean_condensed,
    euclidean_matrix,
    unique_rows_with_weights,
)
from repro.cluster.distance import condense


def textbook_euclidean(data):
    """``sqrt(max(|x|² + |y|² - 2x·y, 0))`` with the near-zero snap, built
    from whole-matrix temporaries."""
    squared_norms = np.einsum("ij,ij->i", data, data)
    squared = (
        squared_norms[:, None] + squared_norms[None, :] - 2.0 * (data @ data.T)
    )
    np.maximum(squared, 0.0, out=squared)
    scale = float(squared_norms.max(initial=0.0))
    if scale > 0:
        squared[squared < 1e-12 * scale] = 0.0
    matrix = np.sqrt(squared)
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestEuclideanMatrix:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(25, 7))
        mine = euclidean_matrix(data)
        scipys = squareform(pdist(data))
        assert np.allclose(mine, scipys)

    def test_zero_diagonal(self):
        data = np.random.default_rng(1).normal(size=(10, 3))
        assert np.allclose(np.diag(euclidean_matrix(data)), 0.0)

    def test_symmetry(self):
        data = np.random.default_rng(2).normal(size=(12, 4))
        matrix = euclidean_matrix(data)
        assert np.allclose(matrix, matrix.T)

    def test_identical_points_zero(self):
        data = np.ones((3, 5))
        assert np.allclose(euclidean_matrix(data), 0.0)

    def test_no_negative_from_cancellation(self):
        # Large magnitudes can make |x|²+|y|²-2xy slightly negative.
        data = np.full((4, 2), 1e8) + np.random.default_rng(3).normal(
            size=(4, 2)
        )
        assert (euclidean_matrix(data) >= 0).all()

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError):
            euclidean_matrix(np.ones(5))

    @pytest.mark.parametrize("rows", [1, 7, 256, 600])
    def test_bits_match_textbook_expression(self, rows):
        # 600 rows spans many in-place row blocks; the duplicated rows
        # exercise the near-zero snap.
        data = np.random.default_rng(rows).normal(size=(rows, 9))
        data[rows // 2:] = data[: rows - rows // 2]
        assert np.array_equal(euclidean_matrix(data), textbook_euclidean(data))


class TestCondensed:
    def test_matches_scipy_pdist(self):
        data = np.random.default_rng(4).normal(size=(15, 3))
        assert np.allclose(euclidean_condensed(data), pdist(data))

    def test_length(self):
        data = np.random.default_rng(5).normal(size=(10, 2))
        assert euclidean_condensed(data).shape == (45,)

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_condense_is_the_upper_triangle(self, n):
        matrix = np.arange(n * n, dtype=np.float64).reshape(n, n)
        upper = matrix[np.triu_indices(n, k=1)]
        assert np.array_equal(condense(matrix), upper)


class TestUniqueRows:
    def test_collapse(self):
        data = np.array([[1, 0], [0, 1], [1, 0], [1, 0]])
        prototypes, weights, inverse = unique_rows_with_weights(data)
        assert prototypes.shape[0] == 2
        assert sorted(weights.tolist()) == [1.0, 3.0]

    def test_inverse_reconstructs(self):
        data = np.array([[1, 0], [0, 1], [1, 0]])
        prototypes, _, inverse = unique_rows_with_weights(data)
        assert (prototypes[inverse] == data).all()

    def test_all_unique(self):
        data = np.arange(12).reshape(4, 3)
        prototypes, weights, _ = unique_rows_with_weights(data)
        assert prototypes.shape[0] == 4
        assert (weights == 1).all()

    def test_weights_sum_to_rows(self):
        data = np.random.default_rng(6).integers(0, 2, size=(50, 4))
        _, weights, _ = unique_rows_with_weights(data)
        assert weights.sum() == 50
