"""Batch / multiprocess execution substrate.

Experiment 4 names signature matching "completely parallelizable" (Bro's
cluster mode); the same argument applies to phase-2 feature extraction,
where every sample's count vector is independent of every other's.  This
package supplies the shared machinery:

- :mod:`repro.parallel.chunking` — deterministic chunk planning.
- :mod:`repro.parallel.fanout` — :func:`process_map`, the one
  order-preserving chunked process map behind both fan-outs.
- :mod:`repro.parallel.cache` — an LRU cache and the payload-keyed
  :class:`CachedNormalizer` used on every batch hot path.
- :mod:`repro.parallel.batch` — batched detector runs
  (``SignatureEngine.run_batch``) that normalize once and evaluate all
  signatures against the shared normalized form.

``FeatureExtractor.extract_many(workers=N)`` is the other caller of
:func:`process_map`.  Processes, not threads: the matchers are pure-Python
``re`` loops, so the GIL serializes any thread pool; ``fork``-started
worker processes each hold their own compiled catalog and scale with
cores.
"""

from repro.parallel.batch import run_batch
from repro.parallel.cache import CachedNormalizer, CacheStats, LruCache
from repro.parallel.chunking import chunk_spans, plan_chunks
from repro.parallel.fanout import MIN_PARALLEL_BATCH, process_map

__all__ = [
    "MIN_PARALLEL_BATCH",
    "plan_chunks",
    "chunk_spans",
    "process_map",
    "LruCache",
    "CacheStats",
    "CachedNormalizer",
    "run_batch",
]
