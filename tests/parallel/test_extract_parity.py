"""Batch feature extraction must be bit-identical at every worker count."""

import numpy as np
import pytest

from repro.corpus.grammar import CorpusGenerator
from repro.features import FeatureCatalog, FeatureExtractor
from repro.parallel import fanout


@pytest.fixture(scope="module")
def payloads():
    """A mixed batch: generated attacks plus benign-looking repeats."""
    samples = CorpusGenerator(seed=7).generate(120)
    return [s.payload for s in samples] + [
        "course=cs101&term=fall2012",
        "q=select+a+course",
    ] * 20


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor()


@pytest.fixture(scope="module")
def serial_matrix(extractor, payloads):
    return extractor.extract_many(payloads)


class TestExtractParity:
    @pytest.mark.smoke
    def test_two_workers_identical(self, extractor, payloads, serial_matrix):
        parallel = extractor.extract_many(payloads, workers=2)
        assert parallel.counts.dtype == serial_matrix.counts.dtype
        assert (parallel.counts == serial_matrix.counts).all()
        assert parallel.sample_ids == serial_matrix.sample_ids

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_worker_sweep_identical(
        self, workers, extractor, payloads, serial_matrix
    ):
        parallel = extractor.extract_many(payloads, workers=workers)
        assert (parallel.counts == serial_matrix.counts).all()
        assert parallel.sample_ids == serial_matrix.sample_ids

    def test_extractor_workers_kwarg_identical(self, extractor, payloads):
        # The LRU-backed batch path against plain per-payload extraction.
        reference = np.vstack([extractor.extract(p) for p in payloads])
        matrix = extractor.extract_many(payloads, workers=2)
        assert (matrix.counts == reference).all()

    def test_custom_sample_ids_preserved_in_order(self, extractor, payloads):
        ids = [f"row-{i}" for i in range(len(payloads))]
        matrix = extractor.extract_many(payloads, sample_ids=ids, workers=2)
        assert matrix.sample_ids == ids


class TestEdgeCases:
    def test_empty_batch(self, extractor):
        matrix = extractor.extract_many([], workers=4)
        assert matrix.n_samples == 0
        assert matrix.n_features == len(extractor.catalog)

    def test_empty_catalog(self):
        empty = FeatureExtractor(catalog=FeatureCatalog([]))
        matrix = empty.extract_many(["id=1' union select 1"] * 80, workers=2)
        assert matrix.counts.shape == (80, 0)

    def test_small_batch_stays_in_process(self, extractor, monkeypatch):
        # Below MIN_PARALLEL_BATCH no pool is started; output unchanged.
        def no_pool(*args, **kwargs):
            raise AssertionError("a small batch started a process pool")

        monkeypatch.setattr(fanout, "ProcessPoolExecutor", no_pool)
        matrix = extractor.extract_many(["id=1", "id=2"], workers=4)
        reference = np.vstack([extractor.extract(p) for p in ["id=1", "id=2"]])
        assert (matrix.counts == reference).all()

    def test_sample_id_mismatch_rejected(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract_many(
                ["id=1", "id=2"], sample_ids=["only-one"], workers=2
            )

    def test_invalid_configuration_rejected(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract_many(["id=1"], workers=0)
