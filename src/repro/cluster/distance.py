"""Pairwise distance computation for the clustering substrate."""

from __future__ import annotations

import numpy as np

#: Rows finished per block in :func:`euclidean_matrix`; bounds its one
#: temporary at ``_BLOCK_ROWS × n`` floats.
_BLOCK_ROWS = 256


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
    for start in range(0, matrix.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
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


def condense(matrix: np.ndarray) -> np.ndarray:
    """Condensed (upper-triangle, row-major) copy of a square matrix.

    Scipy's ``squareform`` order, copied row by row so that no index
    arrays are built.
    """
    n = matrix.shape[0]
    condensed = np.empty(n * (n - 1) // 2, dtype=np.float64)
    start = 0
    for row in range(n - 1):
        stop = start + n - 1 - row
        condensed[start:stop] = matrix[row, row + 1:]
        start = stop
    return condensed


def euclidean_condensed(data: np.ndarray) -> np.ndarray:
    """Condensed (upper-triangle, row-major) form, scipy-compatible."""
    return condense(euclidean_matrix(data))


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
