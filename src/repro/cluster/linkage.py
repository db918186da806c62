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

Output is a scipy-compatible ``Z`` linkage matrix, so results can be
cross-checked against :func:`scipy.cluster.hierarchy.linkage` in tests.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import euclidean_matrix


def upgma(
    data: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> np.ndarray:
    """UPGMA linkage of the rows of *data*.

    Each merge joins the closest pair of live clusters: one ``argmin`` over
    the whole working matrix, so a tie goes to the first such cell in
    row-major order.  The run is O(n³).

    Args:
        data: ``(n, d)`` points (ignored when *distances* is given, except
            for its row count).
        weights: per-point multiplicities; defaults to all ones.
        distances: optional precomputed ``(n, n)`` distance matrix.  UPGMA
            works in it instead of a copy (a float64 array is overwritten
            with ``inf`` and merged-cluster distances), so pass a copy to
            keep it.

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
        distances = np.asarray(distances, dtype=np.float64)
        if distances.shape[0] != distances.shape[1]:
            raise ValueError("distance matrix must be square")
    n = distances.shape[0]
    if n < 2:
        raise ValueError("need at least two points to cluster")
    if weights is None:
        sizes = np.ones(n, dtype=np.float64)
    else:
        sizes = np.asarray(weights, dtype=np.float64).copy()
        if sizes.shape != (n,):
            raise ValueError("weights must have one entry per point")
        if (sizes <= 0).any():
            raise ValueError("weights must be positive")

    # Working matrix: np.inf marks the diagonal and retired clusters.
    work = distances
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    cluster_ids = np.arange(n)  # current linkage id of each slot
    linkage = np.zeros((n - 1, 4), dtype=np.float64)

    for step in range(n - 1):
        flat_index = int(np.argmin(work))
        i, j = divmod(flat_index, n)
        if not (active[i] and active[j]) or not np.isfinite(work[i, j]):
            raise AssertionError("linkage invariant violated")
        if cluster_ids[i] > cluster_ids[j]:
            i, j = j, i
        merge_distance = work[i, j]
        size_i, size_j = sizes[i], sizes[j]
        merged_size = size_i + size_j

        linkage[step, 0] = cluster_ids[i]
        linkage[step, 1] = cluster_ids[j]
        linkage[step, 2] = merge_distance
        linkage[step, 3] = merged_size

        # Lance–Williams UPGMA update into slot i; retire slot j.
        new_row = (size_i * work[i, :] + size_j * work[j, :]) / merged_size
        work[i, :] = new_row
        work[:, i] = new_row
        work[i, i] = np.inf
        work[j, :] = np.inf
        work[:, j] = np.inf
        active[j] = False
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
