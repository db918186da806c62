"""The seeded generators rebuild the same bytes, pinned by SHA-256.

Every trace and corpus in this reproduction is a pure function of its
seed (DESIGN.md §7).  These digests were recorded from the generators
when they still drew through ``np.random.default_rng``; the generators
now draw through :class:`repro.corpus.draws.DrawStream`, which must
return the same values in the same order.  A digest here moves only if
a generator's output does, which also moves every census, golden file
and committed corpus hash.

Each digest is SHA-256 over the ``repr`` of every generated item (a
request, sample or crawled sample), one per line: ``repr`` of these
frozen dataclasses carries every field, surface pairs included.
"""

import hashlib

import pytest

from repro.corpus.grammar import CorpusGenerator
from repro.corpus.surfaces import SurfaceCorpusGenerator
from repro.crawler import CrawlSession, SimulatedWeb
from repro.eval.datasets import build_test_datasets

#: ``build_test_datasets(seed=s)`` at its default sizes.
DATASETS = {
    1: {
        "sqlmap": "dfc5461e48e734329eedf783588e118816c1a928dd9d9a8ed9c6f8e93e685a88",
        "arachni": "4782b3dfe13819c6ff74bf28fec0e3b3a81972aa2972ea75274b6a3cc3456b7e",
        "benign": "ab6cc4b792f8c230f82dfef349e4197b87b8d3f11aa0db7aebd290121ea87d5f",
    },
    5: {
        "sqlmap": "bf2946ca2fd7da2f9bea7d5eb445f307ea3a0932706f94784520fe68fdf82a5c",
        "arachni": "453aca6c3244aeb0500c0ee407fb902bed63866ad13658d27ee862fff5a960e1",
        "benign": "047a3c12769a4be1244fb882ba49e2939f2d7e062a6674160f10db1760ca4b1e",
    },
    77: {
        "sqlmap": "3bd8a6ca5a551712cba7b24f262e29ecee4779e6da83a8f338c6fce3922c207d",
        "arachni": "259672fd15205b88522b9cea3fed2cbf5cd3a73832a173af2e533eb5a0e24cce",
        "benign": "929c96f8d9027326076865ecb140d74127a12da24f18d2029fdea7c1dccb61b8",
    },
}
SURFACE_MIX = "971df17508c3e047784c647c90eded4501cf5772cc143e3d630996e39d4242a7"
GRAMMAR = "34f8674dc99e273ad3e516e7a9e7bbab56c1053310c2f9f1ebd2ec69363c0d86"
CRAWL_2012 = "c8d12a80a264884538d0daa143521792d57232e87352b63c0fbd274c85d319ff"
CRAWL_7 = "3d44fc23f761d82688f24124af82224f66de516a84036e5d7f80b53f85b14491"


def _digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DATASETS))
def test_test_datasets(seed):
    datasets = build_test_datasets(seed=seed)
    assert {
        name: _digest(getattr(datasets, name).requests)
        for name in DATASETS[seed]
    } == DATASETS[seed]


def test_surface_mixed_trace():
    trace = SurfaceCorpusGenerator(1).mixed_trace(2000)
    assert _digest(trace.requests) == SURFACE_MIX


def test_grammar_corpus():
    assert _digest(CorpusGenerator(2012).generate(3000)) == GRAMMAR


@pytest.mark.parametrize(
    "corpus_size, seed, expected",
    [(2000, 2012, CRAWL_2012), (500, 7, CRAWL_7)],
)
def test_crawled_samples(corpus_size, seed, expected):
    report = CrawlSession(SimulatedWeb(corpus_size, seed=seed)).run()
    assert _digest(report.samples) == expected
