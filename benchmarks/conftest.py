"""Benchmark fixtures: a bench-scale evaluation context shared by every
table/figure benchmark, plus result recording into benchmarks/results/.

Scale: the paper trains on 30,000 crawled samples and tests on ~7,200 +
8,578 attacks and 1.4M benign requests.  The bench context uses 3,000
training samples (crawled), the full 136-vulnerability application (so the
attack test sets match the paper's sizes), and 20,000 benign requests —
large enough to resolve FPRs at the 0.01% level while keeping the whole
bench suite in minutes.  EXPERIMENTS.md records a full-scale run.

Every bench writes two artifacts: a human-readable text table via
``record`` and a schema-versioned ``BENCH_<slug>.json`` via ``emit``
(the :mod:`benchlib` writer), so the whole evaluation has a
machine-readable trajectory that ``scripts/ci_bench_guard.py`` floors
and ``scripts/reproduce_all.py`` folds into ``SUMMARY.json``.  Both
honour the ``REPRO_BENCH_RESULTS_DIR`` override.  ``emit`` also holds
each artifact to its slug's entry in the emitting module's ``FLOORS``:
a bench declares its acceptance bars there once, and the guard reads
the same declaration.
"""

import os

import pytest

from benchlib import (
    BENCH_CONTEXT,
    BenchResult,
    check_floors,
    corpus_digest,
    load_artifact,
    results_dir,
    write_artifact,
)
from repro.eval import EvaluationContext

try:
    import pytest_benchmark  # noqa: F401

    _HAVE_BENCHMARK_PLUGIN = True
except ImportError:
    _HAVE_BENCHMARK_PLUGIN = False


if not _HAVE_BENCHMARK_PLUGIN:
    # Minimal environments (the CI reproduce-quick step installs only the
    # core dependencies) still need the artifact bundle to regenerate:
    # stand in for pytest-benchmark's fixture, running the measured
    # callable once without timing statistics.
    class _FallbackBenchmark:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1,
                     iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


@pytest.fixture(scope="session")
def bench_context():
    return EvaluationContext.build(**BENCH_CONTEXT)


@pytest.fixture(scope="session")
def context_corpus(bench_context):
    """Content hashes of the shared context's test corpora."""
    datasets = bench_context.datasets
    return {
        "sqlmap": corpus_digest(datasets.sqlmap.payloads()),
        "arachni": corpus_digest(datasets.arachni.payloads()),
        "benign": corpus_digest(datasets.benign.payloads()),
    }


@pytest.fixture(scope="session")
def record():
    """Writer that saves each regenerated text artifact under results/."""

    def _write(name: str, text: str) -> None:
        path = os.path.join(results_dir(), f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _write


@pytest.fixture
def emit(request):
    """Writer that saves one ``BENCH_<slug>.json`` per bench result, then
    checks the written metrics against the module's ``FLOORS[slug]``.

    The artifact is written first, so a run that misses a floor still
    records what it measured.
    """
    floors = request.module.FLOORS

    def _emit(result: BenchResult) -> str:
        path = write_artifact(result)
        print(f"[saved to {path}]")
        check_floors(
            result.bench, load_artifact(path)["metrics"],
            floors[result.bench],
        )
        return path

    return _emit
