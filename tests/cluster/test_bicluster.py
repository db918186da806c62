"""Tests for two-way biclustering and selection rules."""

import numpy as np
import pytest

from repro.cluster import Biclusterer, is_black_hole_block
from repro.cluster.bicluster import (
    BLACK_HOLE_ROW_FEATURES,
    MIN_SAMPLE_FRACTION,
)
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import current_tracer


def _block_data(rng, n_per_block=60, n_features=30):
    """Three planted blocks, each active on its own feature band."""
    blocks = []
    for band in range(3):
        block = np.zeros((n_per_block, n_features), dtype=float)
        columns = slice(band * 10, band * 10 + 10)
        block[:, columns] = rng.poisson(3, size=(n_per_block, 10))
        block[:, columns] += 1  # guarantee support
        blocks.append(block)
    return np.vstack(blocks)


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(21)
    return _block_data(rng)


class TestPlantedRecovery:
    def test_three_bands_recovered(self, planted):
        # The adaptive cut subdivides while both children clear the 5%
        # rule (capped at max_biclusters), so bands may split into
        # sub-blocks — but every band must own at least one bicluster and
        # no bicluster may straddle bands (checked in test_blocks_pure).
        result = Biclusterer().fit(planted)
        assert 3 <= len(result.biclusters) <= 11
        truth = np.repeat([0, 1, 2], 60)
        owned_bands = {
            truth[b.sample_indices[0]] for b in result.biclusters
        }
        assert owned_bands == {0, 1, 2}

    def test_extreme_gap_disables_subdivision(self, planted):
        # A prohibitive separation requirement stops all splitting: one
        # root cluster remains.
        result = Biclusterer(split_gap=100.0).fit(planted)
        assert len(result.biclusters) == 1

    def test_blocks_pure(self, planted):
        result = Biclusterer().fit(planted)
        truth = np.repeat([0, 1, 2], 60)
        for bicluster in result.biclusters:
            labels = truth[bicluster.sample_indices]
            assert len(np.unique(labels)) == 1

    def test_features_match_band(self, planted):
        result = Biclusterer().fit(planted)
        truth = np.repeat([0, 1, 2], 60)
        for bicluster in result.biclusters:
            band = truth[bicluster.sample_indices[0]]
            expected = set(range(band * 10, band * 10 + 10))
            assert set(bicluster.feature_indices.tolist()) <= expected

    def test_no_black_holes_in_dense_blocks(self, planted):
        result = Biclusterer().fit(planted)
        assert not any(b.is_black_hole for b in result.biclusters)

    def test_high_cophenetic_on_planted(self, planted):
        result = Biclusterer().fit(planted)
        assert result.cophenetic_correlation > 0.85


class TestSelectionRules:
    def test_small_clusters_not_selected(self):
        rng = np.random.default_rng(5)
        data = _block_data(rng, n_per_block=60)
        # A tiny fourth block: 4 rows of 184 (~2%) — below the 5% rule.
        tiny = np.zeros((4, 30))
        tiny[:, 25:30] = 9.0
        result = Biclusterer().fit(np.vstack([data, tiny]))
        sizes = [b.n_samples for b in result.biclusters]
        total = 184
        for size in sizes:
            assert size / total >= MIN_SAMPLE_FRACTION

    def test_uncovered_rows_reported(self):
        rng = np.random.default_rng(6)
        data = _block_data(rng, n_per_block=60)
        outlier = np.full((1, 30), 40.0)
        result = Biclusterer().fit(np.vstack([data, outlier]))
        covered = set()
        for bicluster in result.biclusters:
            covered.update(bicluster.sample_indices.tolist())
        assert set(result.uncovered.tolist()) == (
            set(range(181)) - covered
        )

    def test_max_biclusters_cap(self, planted):
        result = Biclusterer(max_biclusters=2).fit(planted)
        assert len(result.biclusters) <= 2

    def test_indices_start_at_one(self, planted):
        result = Biclusterer().fit(planted)
        assert [b.index for b in result.biclusters][0] == 1


class TestBlackHoles:
    def test_probe_block_marked(self):
        rng = np.random.default_rng(9)
        dense = _block_data(rng, n_per_block=60)
        probes = np.zeros((30, 30))
        probes[:, 0] = 1.0
        probes[:, 1] = rng.integers(0, 2, 30)
        result = Biclusterer().fit(np.vstack([dense, probes]))
        probe_clusters = [
            b for b in result.biclusters
            if set(b.sample_indices.tolist()) & set(range(180, 210))
        ]
        assert probe_clusters
        assert all(b.is_black_hole for b in probe_clusters)

    def test_is_black_hole_block_on_sparse(self):
        block = np.zeros((20, 100))
        block[:, 0] = 1
        block[:, 1] = 1
        assert is_black_hole_block(block)

    def test_is_black_hole_block_on_dense(self):
        block = np.ones((20, 100))
        assert not is_black_hole_block(block)

    def test_row_feature_threshold_boundary(self):
        block = np.zeros((10, 50))
        block[:, :BLACK_HOLE_ROW_FEATURES] = 1
        assert is_black_hole_block(block)
        block[:, : BLACK_HOLE_ROW_FEATURES + 3] = 1
        assert not is_black_hole_block(block)

    def test_empty_block_is_black_hole(self):
        assert is_black_hole_block(np.zeros((0, 10)))

    def test_cells_mode(self):
        sparse = np.zeros((20, 100))
        sparse[:, 0] = 1
        clusterer = Biclusterer(
            black_hole_mode="cells", black_hole_zero_fraction=0.9
        )
        assert clusterer.is_black_hole(sparse)
        assert not clusterer.is_black_hole(np.ones((5, 5)))


class TestValidation:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            Biclusterer().fit(np.ones((2, 5)))

    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError):
            Biclusterer().fit(np.ones((10, 5)))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            Biclusterer(min_fraction=0.0)

    def test_bad_transform_rejected(self):
        with pytest.raises(ValueError):
            Biclusterer(transform="sqrt")

    def test_bad_black_hole_mode_rejected(self):
        with pytest.raises(ValueError):
            Biclusterer(black_hole_mode="maybe")


class TestTransforms:
    def test_log1p_normalized_rows_unit_norm(self, planted):
        transformed = Biclusterer().transform_rows(planted)
        norms = np.linalg.norm(transformed, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_binary_transform(self, planted):
        clusterer = Biclusterer(transform="binary", row_normalize=False)
        transformed = clusterer.transform_rows(planted)
        assert set(np.unique(transformed)) <= {0.0, 1.0}

    def test_raw_transform_identity(self, planted):
        clusterer = Biclusterer(transform="raw", row_normalize=False)
        assert np.allclose(clusterer.transform_rows(planted), planted)

    def test_zero_row_survives_normalization(self):
        clusterer = Biclusterer()
        data = np.zeros((4, 6))
        data[0, 0] = 1
        transformed = clusterer.transform_rows(data)
        assert np.isfinite(transformed).all()


class TestLinkageTiming:
    def test_a_fit_outside_a_tracer_records_the_linkage_time(self, planted):
        """The linkage histogram times the UPGMA build itself, not an
        unrecorded span whose wall time reads 0."""
        assert current_tracer() is None
        with use_registry(MetricsRegistry()) as registry:
            Biclusterer().fit(planted)
        linkage = registry.histogram("repro_cluster_linkage_seconds")
        assert linkage.count == 1
        assert linkage.max > 0.0
