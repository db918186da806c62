"""Hierarchical agglomerative clustering with UPGMA linkage, from scratch.

Section II-C: "We use a simple approach to achieve the biclustering
technique, performing a two-way hierarchical agglomerative clustering (HAC)
algorithm, using the Unweighted Pair Group Method with Arithmetic Mean
(UPGMA). ... At each step, the nearest two clusters are combined into a
higher-level cluster.  The distance between any two clusters A and B is
taken to be the average of all distances between pairs of objects x in A
and y in B."

The implementation supports *weighted points* (a point standing for ``w``
identical samples), which is what lets the pipeline run UPGMA over 30,000
samples: duplicates collapse to prototypes first, and the average-linkage
update — the Lance–Williams recurrence
``d(k, i∪j) = (n_i·d(k,i) + n_j·d(k,j)) / (n_i + n_j)`` — uses the summed
weights, making the result identical to UPGMA over the uncollapsed matrix.

The merges run over a condensed triangle (one cell per pair of points) in
the second half of the ``(n, n)`` distance buffer; the first half keeps
the original distances for the cophenetic coefficient (see
:mod:`repro.cluster.distance`).  Output is a scipy-compatible ``Z``
linkage matrix, so results can be cross-checked against
:func:`scipy.cluster.hierarchy.linkage` in tests.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.cluster.distance import euclidean_matrix, pack_upper, row_starts


def upgma(
    data: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> np.ndarray:
    """UPGMA linkage of the rows of *data*.

    The strict upper triangle of the distances is packed into the first
    half of their buffer and copied into the second half, the working
    triangle.  Each merge joins the closest pair of live clusters: one
    ``argmin`` over the ``n(n-1)/2`` working cells, so a tie goes to the
    first such pair in condensed order, which is also the first minimal
    cell of the symmetric matrix in row-major order.  Merged and retired
    cells hold ``inf``.  The run is O(n³).

    Args:
        data: ``(n, d)`` points (ignored when *distances* is given, except
            for its row count).
        weights: per-point multiplicities; defaults to all ones.
        distances: optional precomputed ``(n, n)`` distance matrix.  UPGMA
            works in it instead of a copy (a C-contiguous float64 array is
            overwritten): afterwards its first ``n(n-1)/2`` cells hold the
            original distances in condensed order and the next
            ``n(n-1)/2`` are all ``inf``
            (:func:`~repro.cluster.distance.condensed_halves`).

    Returns:
        ``(n-1, 4)`` linkage matrix: columns are the two merged cluster ids
        (original points are ``0..n-1``, the cluster created at step ``t``
        is ``n+t``), the merge distance, and the merged cluster's total
        weight.

    Raises:
        ValueError: on fewer than two points or mismatched shapes.
    """
    if distances is None:
        distances = euclidean_matrix(np.asarray(data, dtype=np.float64))
    else:
        distances = np.ascontiguousarray(distances, dtype=np.float64)
        if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
            raise ValueError("distance matrix must be square")
    n = distances.shape[0]
    if n < 2:
        raise ValueError("need at least two points to cluster")
    if weights is None:
        sizes = [1.0] * n
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must have one entry per point")
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        sizes = weights.tolist()

    original = pack_upper(distances)
    cells = original.size
    work = distances.reshape(-1)[cells:2 * cells]
    work[:] = original
    return _merge(work, n, sizes)


def _merge(work: np.ndarray, n: int, sizes: list[float]) -> np.ndarray:
    """The n-1 merges over the condensed working triangle *work*."""
    starts = row_starts(n)
    start_of = starts.tolist()
    # Pair (a, b), a < b, sits at start_of[a] + b; row a's cells end
    # before ends[a].
    ends = (starts + n).tolist()
    cluster_ids = list(range(n))  # current linkage id of each slot
    linkage = np.zeros((n - 1, 4), dtype=np.float64)
    inf = np.inf
    # Slot s's cells: (k, s) for k < s at starts[:s] + s, then (s, k)
    # for k > s as one contiguous run.  Rows are gathered as n values,
    # with inf at the slot itself.
    lower_i = np.empty(n, dtype=starts.dtype)
    lower_j = np.empty(n, dtype=starts.dtype)
    row_i = np.empty(n, dtype=np.float64)
    row_j = np.empty(n, dtype=np.float64)

    for step in range(n - 1):
        flat = int(work.argmin())
        merge_distance = work[flat]
        if not merge_distance < inf:
            raise AssertionError("linkage invariant violated")
        i = bisect_right(ends, flat)
        j = flat - start_of[i]
        if cluster_ids[i] > cluster_ids[j]:
            i, j = j, i
        size_i, size_j = sizes[i], sizes[j]
        merged_size = size_i + size_j

        linkage[step, 0] = cluster_ids[i]
        linkage[step, 1] = cluster_ids[j]
        linkage[step, 2] = merge_distance
        linkage[step, 3] = merged_size

        # Lance–Williams UPGMA update into slot i; retire slot j.
        cells_i = np.add(starts[:i], i, out=lower_i[:i])
        upper_i = slice(start_of[i] + i + 1, ends[i])
        np.take(work, cells_i, out=row_i[:i])
        row_i[i] = inf
        row_i[i + 1:] = work[upper_i]
        cells_j = np.add(starts[:j], j, out=lower_j[:j])
        upper_j = slice(start_of[j] + j + 1, ends[j])
        np.take(work, cells_j, out=row_j[:j])
        row_j[j] = inf
        row_j[j + 1:] = work[upper_j]
        row_i *= size_i
        row_j *= size_j
        row_i += row_j
        row_i /= merged_size
        work[cells_i] = row_i[:i]
        work[upper_i] = row_i[i + 1:]
        work[cells_j] = inf
        work[upper_j] = inf
        sizes[i] = merged_size
        cluster_ids[i] = n + step

    return linkage


def validate_linkage(linkage: np.ndarray, n: int) -> None:
    """Sanity-check a linkage matrix; raises ``ValueError`` on violations.

    Checks shape, id ranges, monotone non-negative heights (UPGMA is
    monotone), and that the final cluster contains total weight equal to the
    sum of leaf weights implied by the merges.
    """
    linkage = np.asarray(linkage)
    if linkage.shape != (n - 1, 4):
        raise ValueError(f"expected shape {(n - 1, 4)}, got {linkage.shape}")
    if (linkage[:, 2] < 0).any():
        raise ValueError("negative merge height")
    if (np.diff(linkage[:, 2]) < -1e-9).any():
        raise ValueError("merge heights are not monotone")
    for step in range(n - 1):
        left, right = int(linkage[step, 0]), int(linkage[step, 1])
        limit = n + step
        if not (0 <= left < limit and 0 <= right < limit):
            raise ValueError(f"merge {step} references invalid cluster id")
        if left == right:
            raise ValueError(f"merge {step} merges a cluster with itself")
