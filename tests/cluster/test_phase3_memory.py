"""Phase 3's memory: one ``(n, n)`` float64 buffer and bounded extras.

``Biclusterer.fit`` computes the distances into one ``(n, n)`` buffer,
merges in its second half and writes the cophenetic triangle there
once the merges are done, so its traced peak is that buffer plus what
scales with the count matrix (transformed rows, prototypes) and a fixed
allowance for block temporaries.  A second distance matrix, a condensed
copy or a merge's whole ``|L|×|R|`` index array would each exceed it.
"""

import tracemalloc

import numpy as np

from repro.cluster import Biclusterer, Dendrogram
from repro.cluster.bicluster import unique_rows_with_weights
from repro.cluster.dendrogram import COPHENETIC_BLOCK

#: Beside its one (n, n) buffer, phase 3 may hold this many copies of
#: the count matrix (its transformed rows and prototypes: O(n·d))...
COUNT_MATRIX_COPIES = 4
#: ...plus this much for block temporaries: the distance finish's row
#: blocks, the cophenetic fill's index blocks and numpy's iterator
#: buffers for them, each a fixed number of cells whatever n is.
FIXED_ALLOWANCE_BYTES = 512 * 2 ** 10


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _banded_counts(rows=720, features=24, seed=5):
    """Four planted feature bands; about 700 distinct rows."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((rows, features))
    band_rows = rows // 4
    for band in range(4):
        block = counts[band * band_rows:(band + 1) * band_rows]
        columns = slice(band * 6, band * 6 + 6)
        block[:, columns] = rng.poisson(2, size=(band_rows, 6)) + 1
    return counts


def _balanced_linkage(n):
    """A perfectly balanced tree over n = 2**k leaves, one level a height."""
    linkage = []
    level = list(range(n))
    size = {leaf: 1 for leaf in level}
    height = 0.0
    while len(level) > 1:
        height += 1.0
        parents = []
        for left, right in zip(level[::2], level[1::2]):
            parent = n + len(linkage)
            size[parent] = size[left] + size[right]
            linkage.append((left, right, height, size[parent]))
            parents.append(parent)
        level = parents
    return np.array(linkage, dtype=np.float64)


def test_fit_peaks_at_one_buffer():
    counts = _banded_counts()
    biclusterer = Biclusterer()
    n = unique_rows_with_weights(biclusterer.transform_rows(counts))[0].shape[0]
    assert n >= 600
    buffer_bytes = n * n * 8
    allowance = COUNT_MATRIX_COPIES * counts.nbytes + FIXED_ALLOWANCE_BYTES
    # A condensed copy alone would overrun the allowance.
    assert allowance < buffer_bytes // 2

    peak = _traced_peak(lambda: biclusterer.fit(counts))

    assert peak <= buffer_bytes + allowance


def test_cophenetic_fill_allocates_only_blocks():
    n = 1024
    dendrogram = Dendrogram(_balanced_linkage(n), n)
    out = np.empty(n * (n - 1) // 2)
    # The top merge joins 512 leaves to 512: a whole |L|×|R| index
    # array would be 32 blocks.
    assert (n // 2) ** 2 > 16 * COPHENETIC_BLOCK

    peak = _traced_peak(lambda: dendrogram.cophenetic_condensed(out))

    # A few block-sized arrays (the index block, the ufuncs' iterator
    # buffers) and the O(n) leaf-order bookkeeping.
    assert peak <= 6 * COPHENETIC_BLOCK * 8 + 64 * n
    heights, cells = np.unique(out, return_counts=True)
    assert heights.tolist() == [float(h) for h in range(1, 11)]
    assert cells.tolist() == [2 ** (8 + h) for h in range(1, 11)]
