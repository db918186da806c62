"""Chunk planning: how a batch of N independent items is split for workers.

Chunks are the unit of fan-out.  They must be (a) deterministic — the same
``(n_items, workers)`` always yields the same spans, so parallel output
can be reassembled in input order and compared bit-for-bit against serial
output — and (b) small enough to balance load but large enough to
amortize per-task IPC.
"""

from __future__ import annotations

#: Chunks per worker.  Oversubscribing each worker lets the pool
#: rebalance when some chunks are slower (regex cost varies wildly across
#: payloads) without paying per-item IPC.
OVERSUBSCRIPTION = 4

#: Never plan chunks smaller than this unless the batch itself is smaller;
#: a chunk must outweigh the cost of pickling its payloads to a worker.
MIN_CHUNK = 8


def plan_chunks(n_items: int, workers: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` spans covering ``range(n_items)``.

    The batch is split into ~``workers * OVERSUBSCRIPTION`` equal chunks,
    bounded below by :data:`MIN_CHUNK`.

    Raises:
        ValueError: on a negative batch size or non-positive worker count.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_items == 0:
        return []
    target = -(-n_items // (workers * OVERSUBSCRIPTION))
    size = max(min(target, n_items), min(MIN_CHUNK, n_items))
    return [
        (start, min(start + size, n_items))
        for start in range(0, n_items, size)
    ]


def chunk_spans(items: list, spans: list[tuple[int, int]]) -> list[list]:
    """Materialize the item slices named by *spans*."""
    return [items[start:stop] for start, stop in spans]
