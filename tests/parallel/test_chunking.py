"""Tests for deterministic chunk planning."""

import pytest

from repro.parallel import chunk_spans, plan_chunks


class TestPlanChunks:
    def test_spans_cover_range_exactly_once(self):
        for n in (1, 7, 64, 100, 1000):
            for workers in (1, 2, 4, 8):
                spans = plan_chunks(n, workers)
                covered = [i for start, stop in spans
                           for i in range(start, stop)]
                assert covered == list(range(n))

    def test_empty_batch(self):
        assert plan_chunks(0, 4) == []

    def test_deterministic(self):
        assert plan_chunks(999, 8) == plan_chunks(999, 8)

    def test_tiny_batch_single_chunk(self):
        spans = plan_chunks(3, 8)
        assert spans == [(0, 3)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_chunks(-1, 2)
        with pytest.raises(ValueError):
            plan_chunks(10, 0)


class TestChunkSpans:
    def test_materializes_slices(self):
        items = list(range(20))
        spans = plan_chunks(20, 2)
        assert spans == [(0, 8), (8, 16), (16, 20)]
        assert chunk_spans(items, spans) == [
            list(range(8)), list(range(8, 16)), [16, 17, 18, 19]
        ]
