"""Pairwise distance computation for the clustering substrate.

Phase 3 keeps its distances in one ``(n, n)`` float64 buffer: the matrix
:func:`euclidean_matrix` returns, whose strict upper triangle
:func:`pack_upper` then packs in place into the buffer's first
``n(n-1)/2`` cells (scipy's condensed order).  :func:`condensed_halves`
names that first half and the equally long second half, where
:func:`~repro.cluster.linkage.upgma` merges and the cophenetic triangle
is later written.
"""

from __future__ import annotations

import numpy as np

#: Cells finished per block in :func:`euclidean_matrix`; bounds its
#: temporaries at this many floats whatever the row count.
_BLOCK_CELLS = 1 << 13


def euclidean_matrix(data: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix of the rows of *data*.

    Computed via the expanded form ``|x|² + |y|² - 2x·y`` (one matmul rather
    than an O(n²·d) Python loop) and finished in the matmul's own output
    buffer, so the result is the only ``(n, n)`` array allocated: the Gram
    matrix is doubled in place, then each block of rows becomes
    ``(|x|² + |y|²) - 2x·y``, is clamped at zero (cancellation leaves tiny
    negatives), snapped and square-rooted in place.  Every element goes
    through the same operations as the textbook expression, so the result
    has the same bits.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (rows are points)")
    squared_norms = np.einsum("ij,ij->i", data, data)
    matrix = data @ data.T
    matrix *= 2.0
    # Cancellation leaves identical rows with squared distances of order
    # eps·|x|² instead of exactly zero; snap those to zero so duplicate
    # rows merge at height 0 (the weighted-UPGMA equivalence depends on
    # it).
    scale = float(squared_norms.max(initial=0.0))
    rows = max(1, _BLOCK_CELLS // max(1, matrix.shape[0]))
    for start in range(0, matrix.shape[0], rows):
        stop = start + rows
        block = matrix[start:stop]
        np.subtract(
            squared_norms[start:stop, None] + squared_norms[None, :],
            block,
            out=block,
        )
        np.maximum(block, 0.0, out=block)
        if scale > 0:
            block[block < 1e-12 * scale] = 0.0
        np.sqrt(block, out=block)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def row_starts(n: int) -> np.ndarray:
    """Offsets that place pair ``(i, j)``, ``i < j``, at ``row_starts[i] + j``.

    Scipy's condensed (upper-triangle, row-major) order over *n* points.
    """
    rows = np.arange(n)
    return rows * (2 * n - 3 - rows) // 2 - 1


def pack_upper(matrix: np.ndarray) -> np.ndarray:
    """Pack a square matrix's strict upper triangle into its first cells.

    Row by row, in condensed order, in the matrix's own buffer: each row's
    cells land at or before where they are read from, so nothing is read
    after it was overwritten.  Returns the packed ``n(n-1)/2`` cells as a
    view; the rest of the buffer keeps stale values.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n) or not matrix.flags.c_contiguous:
        raise ValueError("pack_upper needs a C-contiguous square matrix")
    flat = matrix.reshape(-1)
    start = 0
    for row in range(n - 1):
        stop = start + n - 1 - row
        source = row * n + row + 1
        flat[start:stop] = flat[source:source + stop - start]
        start = stop
    return flat[:start]


def condensed_halves(buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and second ``n(n-1)/2`` cells of an ``(n, n)`` buffer."""
    n = buffer.shape[0]
    size = n * (n - 1) // 2
    flat = buffer.reshape(-1)
    return flat[:size], flat[size:2 * size]


def condense(matrix: np.ndarray) -> np.ndarray:
    """Condensed (upper-triangle, row-major) copy of a square matrix."""
    return pack_upper(np.array(matrix, dtype=np.float64)).copy()


def euclidean_condensed(data: np.ndarray) -> np.ndarray:
    """Condensed (upper-triangle, row-major) form, scipy-compatible."""
    return pack_upper(euclidean_matrix(data)).copy()


def unique_rows_with_weights(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate rows into weighted prototypes.

    Returns ``(prototypes, weights, inverse)`` where ``prototypes`` holds the
    unique rows, ``weights[i]`` counts how many original rows collapsed into
    prototype ``i``, and ``inverse[j]`` maps original row ``j`` to its
    prototype.  Weighted UPGMA over the prototypes yields exactly the same
    dendrogram (above height 0) as unweighted UPGMA over the raw matrix,
    because identical rows always merge first at distance zero.
    """
    data = np.asarray(data)
    prototypes, inverse, counts = np.unique(
        data, axis=0, return_inverse=True, return_counts=True
    )
    return prototypes, counts.astype(np.float64), inverse
