"""The one process map, and both fan-outs against their reference loops."""

import numpy as np
import pytest

from repro.corpus import BenignTrafficGenerator
from repro.corpus.grammar import CorpusGenerator
from repro.features import FeatureExtractor
from repro.http import HttpRequest, Trace
from repro.ids import PSigeneDetector, SignatureEngine
from repro.parallel import MIN_PARALLEL_BATCH, process_map


def _offset_chunk(offset, chunk):
    """Work function: each item plus the shipped state."""
    return [offset + item for item in chunk]


def _fail_on_13(_state, chunk):
    """Work function that raises in whichever worker sees item 13."""
    if 13 in chunk:
        raise KeyError("item 13")
    return list(chunk)


class TestProcessMap:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_come_back_in_input_order(self, workers):
        items = list(range(500))
        chunks = process_map(_offset_chunk, 1000, items, workers)
        assert [x for chunk in chunks for x in chunk] == [
            1000 + i for i in items
        ]

    def test_fans_out_from_min_parallel_batch(self):
        items = list(range(MIN_PARALLEL_BATCH))
        assert len(process_map(_offset_chunk, 0, items, 2)) > 1
        assert len(process_map(_offset_chunk, 0, items[:-1], 2)) == 1
        assert len(process_map(_offset_chunk, 0, items, 1)) == 1

    def test_worker_exception_reaches_the_caller(self):
        with pytest.raises(KeyError, match="item 13"):
            process_map(_fail_on_13, None, list(range(200)), 2)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            process_map(_offset_chunk, 0, [1, 2, 3], workers)


@pytest.fixture(scope="module")
def payloads():
    """1,001 payloads: grammar attacks interleaved with benign traffic."""
    attacks = [s.payload for s in CorpusGenerator(seed=11).generate(500)]
    benign = BenignTrafficGenerator(seed=12).trace(501).payloads()
    mixed = [benign[0]]
    for attack, request in zip(attacks, benign[1:]):
        mixed += [attack, request]
    return mixed


SIZES = [0, 63, 64, 1001]
WORKERS = [1, 2, 8]


class TestEntryPointsMatchReference:
    """``extract_many`` and ``run_batch`` against the per-item loops.

    The 1,001 batch leaves a short last chunk at every worker count.
    """

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("size", SIZES)
    def test_extract_many(self, size, workers, payloads):
        extractor = FeatureExtractor()
        batch = payloads[:size]
        reference = np.zeros((size, len(extractor.catalog)), np.int32)
        for row, payload in enumerate(batch):
            reference[row] = extractor.extract(payload)
        matrix = extractor.extract_many(batch, workers=workers)
        assert matrix.counts.dtype == np.int32
        assert matrix.counts.shape == reference.shape
        assert (matrix.counts == reference).all()
        assert matrix.sample_ids == [f"s{i}" for i in range(size)]

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("size", SIZES)
    def test_run_batch(self, size, workers, payloads, small_signatures):
        trace = Trace(
            name=f"mixed-{size}",
            requests=[HttpRequest(query=p) for p in payloads[:size]],
        )
        engine = SignatureEngine(PSigeneDetector(small_signatures))
        reference = engine.run(trace)
        batched = engine.run_batch(trace, workers=workers)
        assert batched.alert_flags.tolist() == reference.alert_flags.tolist()
        assert [
            (a.request_index, a.matched, a.score) for a in batched.alerts
        ] == [
            (a.request_index, a.matched, a.score) for a in reference.alerts
        ]
        assert batched.scores.shape == (size,)
