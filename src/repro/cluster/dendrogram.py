"""Dendrogram utilities: cutting, leaf ordering, cophenetic validation.

Section II-C: "The UPGMA algorithm produces a hierarchical tree, usually
presented as a dendrogram, from which clusters can be created" and "we also
calculated the cophenetic correlation coefficient for each dendrogram ...
we found the cophenetic correlation coefficient value of 0.92".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import row_starts

#: Leaf pairs one merge writes per step of
#: :meth:`Dendrogram.cophenetic_condensed`; bounds its index arrays.
COPHENETIC_BLOCK = 1 << 13


class Dendrogram:
    """A parsed linkage matrix with query operations.

    Args:
        linkage: ``(n-1, 4)`` UPGMA linkage matrix.
        n_leaves: number of original points.
    """

    def __init__(self, linkage: np.ndarray, n_leaves: int) -> None:
        linkage = np.asarray(linkage, dtype=np.float64)
        if linkage.shape != (n_leaves - 1, 4):
            raise ValueError(
                f"linkage shape {linkage.shape} does not match "
                f"{n_leaves} leaves"
            )
        self.linkage = linkage
        self.n_leaves = n_leaves
        self._members_cache: list[list[int]] | None = None

    # -- structure ---------------------------------------------------------

    def _members(self) -> list[list[int]]:
        """Leaf membership of every internal cluster id ``n..2n-2``."""
        if self._members_cache is not None:
            return self._members_cache
        members: list[list[int]] = []
        for step in range(self.n_leaves - 1):
            merged: list[int] = []
            for side in (0, 1):
                cid = int(self.linkage[step, side])
                if cid < self.n_leaves:
                    merged.append(cid)
                else:
                    merged.extend(members[cid - self.n_leaves])
            members.append(merged)
        self._members_cache = members
        return members

    def members_of(self, cluster_id: int) -> list[int]:
        """Leaf indices under *cluster_id* (a leaf id returns itself)."""
        if cluster_id < self.n_leaves:
            return [cluster_id]
        return list(self._members()[cluster_id - self.n_leaves])

    def leaf_order(self) -> list[int]:
        """Left-to-right leaf ordering — the heatmap row/column order."""
        if self.n_leaves == 1:
            return [0]

        order: list[int] = []
        stack: list[int] = [2 * self.n_leaves - 2]
        while stack:
            cid = stack.pop()
            if cid < self.n_leaves:
                order.append(cid)
                continue
            step = cid - self.n_leaves
            left, right = int(self.linkage[step, 0]), int(self.linkage[step, 1])
            stack.append(right)
            stack.append(left)
        return order

    # -- cutting -----------------------------------------------------------

    def cut_at_height(self, height: float) -> np.ndarray:
        """Flat cluster labels after cutting all merges above *height*.

        Returns an ``(n_leaves,)`` integer label array; labels are dense,
        ordered by first leaf occurrence.
        """
        parent = np.arange(self.n_leaves)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        members = self._members()
        for step in range(self.n_leaves - 1):
            if self.linkage[step, 2] <= height:
                merged = members[step]
                root = find(merged[0])
                for leaf in merged[1:]:
                    parent[find(leaf)] = root
        return _dense_labels(np.array([find(i) for i in range(self.n_leaves)]))

    def cut_to_k(self, k: int) -> np.ndarray:
        """Flat labels for exactly *k* clusters (undoing the last merges)."""
        if not 1 <= k <= self.n_leaves:
            raise ValueError(f"k must be in [1, {self.n_leaves}]")
        if k == 1:
            return np.zeros(self.n_leaves, dtype=int)
        # Cut below the (k-1)-th highest merge.
        heights = np.sort(self.linkage[:, 2])
        threshold = heights[-(k - 1)]
        labels = self.cut_at_height(np.nextafter(threshold, -np.inf))
        return labels

    # -- cophenetic validation ----------------------------------------------

    def cophenetic_condensed(self, out: np.ndarray | None = None) -> np.ndarray:
        """Condensed (upper-triangle, row-major) cophenetic distances.

        The cophenetic distance between two leaves is the height of the
        merge that first placed them in one cluster.  Each merge writes its
        height to its ``|L|×|R|`` leaf pairs a block at a time, so no index
        array exceeds ``COPHENETIC_BLOCK`` cells.

        Args:
            out: optional ``n(n-1)/2`` float64 array to fill (every cell is
                written); a new one is allocated when omitted.
        """
        n = self.n_leaves
        size = n * (n - 1) // 2
        if out is None:
            out = np.zeros(size, dtype=np.float64)
        elif out.shape != (size,):
            raise ValueError(f"expected {size} condensed cells, got {out.shape}")
        starts = row_starts(n)
        leaves = np.arange(n)
        component = {i: leaves[i:i + 1] for i in range(n)}
        for step in range(n - 1):
            left = component.pop(int(self.linkage[step, 0]))
            right = component.pop(int(self.linkage[step, 1]))
            height = self.linkage[step, 2]
            columns = min(right.size, COPHENETIC_BLOCK)
            rows = COPHENETIC_BLOCK // columns
            for row in range(0, left.size, rows):
                a = left[row:row + rows, None]
                for column in range(0, right.size, columns):
                    b = right[None, column:column + columns]
                    index = starts[np.minimum(a, b)]
                    index += np.maximum(a, b)
                    out[index] = height
            component[n + step] = np.concatenate([left, right])
        return out

    def cophenetic_correlation(
        self, original: np.ndarray, *, out: np.ndarray | None = None
    ) -> float:
        """Pearson correlation between cophenetic and original distances.

        Both sides are condensed upper triangles, and they are the only
        ``n(n-1)/2``-sized arrays: *original* is centred and then squared
        in place, and the cophenetic triangle is written into *out* twice,
        once for the cross products and again for its own squares.  Every
        sum runs over the same values in the same order as the textbook
        three-array formula, so the coefficient has the same bits.

        Args:
            original: the condensed distances the tree was built from
                (:func:`~repro.cluster.distance.condensed_halves`);
                overwritten.
            out: optional spare ``n(n-1)/2`` float64 array for the
                cophenetic triangle, such as the dead working half of
                :func:`~repro.cluster.linkage.upgma`'s buffer; overwritten.

        Raises:
            ValueError: when *original* is not ``n(n-1)/2`` long, such as a
                square matrix.
        """
        x = np.asarray(original, dtype=np.float64)
        size = self.n_leaves * (self.n_leaves - 1) // 2
        if x.shape != (size,):
            raise ValueError(
                f"expected {size} condensed distances, got shape {x.shape}"
            )
        x -= x.mean()
        y = self.cophenetic_condensed(out)
        y_mean = y.mean()
        y -= y_mean
        y *= x
        covariance = y.sum()
        x *= x
        x_squares = x.sum()
        self.cophenetic_condensed(y)
        y -= y_mean
        y *= y
        denom = np.sqrt(x_squares * y.sum())
        if denom == 0:
            return 1.0
        return float(covariance / denom)


def _dense_labels(raw: np.ndarray) -> np.ndarray:
    """Relabel arbitrary ints to 0..k-1 by first occurrence."""
    mapping: dict[int, int] = {}
    out = np.empty_like(raw)
    for index, value in enumerate(raw):
        if value not in mapping:
            mapping[value] = len(mapping)
        out[index] = mapping[value]
    return out
