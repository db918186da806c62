"""The one order-preserving chunked process map.

Both fan-outs in this repo are thin callers of :func:`process_map`:
:meth:`~repro.features.extractor.FeatureExtractor.extract_many` over
training samples and :func:`~repro.parallel.batch.run_batch` over
requests.  A batch is split by :func:`~repro.parallel.chunking.plan_chunks`,
every chunk goes through ``work(state, chunk)`` in a worker process, and
the per-chunk results come back in input order, so reassembling them
gives exactly the serial answer.

``state`` (an extractor or detector copy) is pickled once per worker by
the pool initializer, not once per chunk: each worker compiles its own
pattern catalog once.  The worker-side global is only ever set inside a
worker; the calling process runs small batches as a plain
``work(state, items)`` call, so concurrent in-process callers never see
each other's state.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.parallel.chunking import chunk_spans, plan_chunks

#: Batches smaller than this never leave the calling process: pool
#: startup costs more than the work itself.
MIN_PARALLEL_BATCH = 64

# ``(work, state)``, set by the pool initializer in worker processes only.
_WORKER: tuple[Callable[[Any, Sequence], Any], Any] | None = None


def _install(work: Callable[[Any, Sequence], Any], state: Any) -> None:
    """Pool initializer: keep this worker's ``work`` and ``state``."""
    global _WORKER
    _WORKER = (work, state)


def _run_chunk(items: Sequence) -> Any:
    """Apply the installed ``work`` to one chunk (worker side)."""
    if _WORKER is None:  # pragma: no cover - the initializer always ran
        raise RuntimeError("process_map worker was not initialized")
    work, state = _WORKER
    return work(state, items)


def process_map(
    work: Callable[[Any, Sequence], Any],
    state: Any,
    items: Sequence,
    workers: int,
) -> list:
    """``work(state, chunk)`` over chunks of *items*, results in input order.

    Args:
        work: a module-level (picklable) function of ``(state, chunk)``.
        state: per-worker context, shipped to each worker once.
        items: the batch; chunks are contiguous slices of it.
        workers: process count.  With 1, a batch below
            :data:`MIN_PARALLEL_BATCH`, or a one-chunk plan, ``work`` runs
            in the calling process over the whole batch.

    Returns:
        One ``work`` result per chunk, in input order (a single result
        when the batch stayed in process).

    Raises:
        ValueError: when ``workers < 1``.  An exception raised by
            ``work`` in a worker is re-raised here.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spans = plan_chunks(len(items), workers)
    if workers == 1 or len(items) < MIN_PARALLEL_BATCH or len(spans) <= 1:
        return [work(state, items)]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(spans)),
        initializer=_install,
        initargs=(work, state),
    ) as pool:
        return list(pool.map(_run_chunk, chunk_spans(items, spans)))
