"""Micro-benchmarks of the substrate hot paths.

These are the pieces whose constant factors decide whether the system
scales to the paper's 30,000 × 477 extraction and 1.4M-request test runs:
normalization, feature extraction, UPGMA, and logistic training.
"""

import time

import numpy as np

from benchlib import BenchResult
from repro.cluster import upgma
from repro.corpus import CorpusGenerator
from repro.features import FeatureExtractor
from repro.learn import train_logistic
from repro.normalize import normalize

PAYLOAD = "id=1%2527/**/UNION/**/SELECT/**/1,2,concat(database()),4--%20-"

#: Sanity ceilings (100 ms) on two measured best-of-3 timings: they
#: catch a hot path gone pathological, not a slowdown.
FLOORS = {
    "micro_substrates": (
        ("normalize_us", "<=", 100_000.0),
        ("extract_us", "<=", 100_000.0),
    ),
}


def test_normalize_speed(benchmark):
    out = benchmark(normalize, PAYLOAD)
    assert "union select" in out


def test_feature_extraction_speed(benchmark):
    extractor = FeatureExtractor()
    vector = benchmark(extractor.extract, PAYLOAD)
    assert vector.sum() > 0


def test_extraction_batch_speed(benchmark):
    extractor = FeatureExtractor()
    payloads = [
        s.payload for s in CorpusGenerator(seed=3).generate(100)
    ]
    matrix = benchmark.pedantic(
        extractor.extract_many, args=(payloads,), rounds=2, iterations=1
    )
    assert matrix.n_samples == 100


def test_upgma_speed_500_points(benchmark):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(500, 40))
    linkage = benchmark.pedantic(
        upgma, args=(points,), rounds=2, iterations=1
    )
    assert linkage.shape == (499, 4)


def test_logistic_training_speed(benchmark):
    rng = np.random.default_rng(1)
    x = np.vstack([
        rng.poisson(1.0, (2000, 15)), rng.poisson(2.5, (2000, 15))
    ]).astype(float)
    y = np.concatenate([np.zeros(2000), np.ones(2000)])
    model, report = benchmark.pedantic(
        train_logistic, args=(x, y), rounds=2, iterations=1
    )
    assert report.newton_iterations >= 1


def test_crawl_speed(benchmark):
    from repro.crawler import CrawlSession, SimulatedWeb

    def crawl():
        web = SimulatedWeb(corpus_size=200, seed=5)
        return CrawlSession(web).run()

    report = benchmark.pedantic(crawl, rounds=1, iterations=1)
    assert len(report.samples) >= 180


def test_nfa_vs_backtracking_speed(benchmark):
    """The linear-time guarantee: the NFA engine on a ReDoS payload."""
    from repro.regexlib import NfaMatcher

    matcher = NfaMatcher(r"(a+)+b")
    payload = "a" * 300 + "c"

    result = benchmark(matcher.search, payload)
    assert result is False


def _best_of_us(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def test_micro_substrates_artifact(emit):
    """One machine-readable artifact summarizing the substrate hot paths.

    pytest-benchmark keeps its own JSON, but the shared trajectory wants
    every bench under the one BenchResult schema, so this re-times the
    same operations with quick best-of-N wall clocks.
    """
    extractor = FeatureExtractor()
    extractor.extract(PAYLOAD)  # warm regex caches
    payloads = [s.payload for s in CorpusGenerator(seed=3).generate(100)]
    rng = np.random.default_rng(0)
    points = rng.normal(size=(300, 40))
    x = np.vstack([
        rng.poisson(1.0, (1000, 15)), rng.poisson(2.5, (1000, 15))
    ]).astype(float)
    y = np.concatenate([np.zeros(1000), np.ones(1000)])

    normalize_us = _best_of_us(lambda: normalize(PAYLOAD))
    extract_us = _best_of_us(lambda: extractor.extract(PAYLOAD))
    batch_us = _best_of_us(lambda: extractor.extract_many(payloads))
    upgma_us = _best_of_us(lambda: upgma(points), rounds=2)
    logistic_us = _best_of_us(lambda: train_logistic(x, y), rounds=2)

    emit(BenchResult(
        bench="micro_substrates",
        kind="perf",
        seed=2012,
        metrics={
            "normalize_us": round(normalize_us, 3),
            "extract_us": round(extract_us, 3),
            "extract_batch100_us": round(batch_us, 3),
            "upgma_300x40_us": round(upgma_us, 3),
            "logistic_2000x15_us": round(logistic_us, 3),
            "extract_batch_per_payload_us": round(batch_us / 100, 3),
        },
    ))

    assert normalize_us > 0.0
    assert batch_us > extract_us
