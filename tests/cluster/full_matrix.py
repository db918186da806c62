"""The full-matrix phase 3 that the condensed one replaced: test oracles.

:func:`upgma` merges in a whole ``(n, n)`` working matrix, one ``argmin``
over all ``n²`` cells per merge, so a tie goes to the first minimal cell
in row-major order.  :func:`cophenetic_matrix` fills every leaf pair of
each merge in an ``(n, n)`` matrix.  :func:`cophenetic_correlation` is the
coefficient's three-array formula: the centred original and cophenetic
triangles plus one product array.  The condensed code must agree with
all three bit for bit.
"""

import numpy as np

from repro.cluster.distance import euclidean_matrix


def upgma(data, *, weights=None, distances=None):
    """UPGMA over the full working matrix (works in *distances*)."""
    if distances is None:
        distances = euclidean_matrix(np.asarray(data, dtype=np.float64))
    n = distances.shape[0]
    if weights is None:
        sizes = np.ones(n, dtype=np.float64)
    else:
        sizes = np.asarray(weights, dtype=np.float64).copy()

    work = distances
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    cluster_ids = np.arange(n)
    linkage = np.zeros((n - 1, 4), dtype=np.float64)
    for step in range(n - 1):
        i, j = divmod(int(np.argmin(work)), n)
        assert active[i] and active[j] and np.isfinite(work[i, j])
        if cluster_ids[i] > cluster_ids[j]:
            i, j = j, i
        merge_distance = work[i, j]
        size_i, size_j = sizes[i], sizes[j]
        merged_size = size_i + size_j
        linkage[step] = (
            cluster_ids[i], cluster_ids[j], merge_distance, merged_size
        )
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


def cophenetic_matrix(linkage, n):
    """The full ``(n, n)`` cophenetic matrix, filled one merge at a time
    with the merge's height."""
    coph = np.zeros((n, n), dtype=np.float64)
    component = {i: [i] for i in range(n)}
    for step in range(n - 1):
        left = component.pop(int(linkage[step, 0]))
        right = component.pop(int(linkage[step, 1]))
        rows = np.array(left)[:, None]
        cols = np.array(right)[None, :]
        coph[rows, cols] = linkage[step, 2]
        coph[cols.T, rows.T] = linkage[step, 2]
        component[n + step] = left + right
    return coph


def cophenetic_correlation(original, cophenetic):
    """Pearson correlation of two condensed triangles, three arrays wide."""
    x = np.array(original, dtype=np.float64)
    y = np.array(cophenetic, dtype=np.float64)
    x -= x.mean()
    y -= y.mean()
    product = x * y
    covariance = product.sum()
    np.multiply(x, x, out=product)
    x_squares = product.sum()
    np.multiply(y, y, out=product)
    denom = np.sqrt(x_squares * product.sum())
    if denom == 0:
        return 1.0
    return float(covariance / denom)
