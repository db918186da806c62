"""Dendrogram utilities: cutting, leaf ordering, cophenetic validation.

Section II-C: "The UPGMA algorithm produces a hierarchical tree, usually
presented as a dendrogram, from which clusters can be created" and "we also
calculated the cophenetic correlation coefficient for each dendrogram ...
we found the cophenetic correlation coefficient value of 0.92".
"""

from __future__ import annotations

import numpy as np


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

    def cophenetic_condensed(self) -> np.ndarray:
        """Condensed (upper-triangle, row-major) cophenetic distances.

        The cophenetic distance between two leaves is the height of the
        merge that first placed them in one cluster.
        """
        n = self.n_leaves
        leaves = np.arange(n)
        # The condensed index of leaves (a, b), a < b, is row_start[a] + b.
        row_start = leaves * (2 * n - 3 - leaves) // 2 - 1
        coph = np.zeros(n * (n - 1) // 2, dtype=np.float64)
        component = {i: leaves[i:i + 1] for i in range(n)}
        for step in range(n - 1):
            left = component.pop(int(self.linkage[step, 0]))
            right = component.pop(int(self.linkage[step, 1]))
            index = row_start[np.minimum.outer(left, right)]
            index += np.maximum.outer(left, right)
            coph[index] = self.linkage[step, 2]
            component[n + step] = np.concatenate([left, right])
        return coph

    def cophenetic_correlation(self, original: np.ndarray) -> float:
        """Pearson correlation between cophenetic and original distances.

        Both sides are condensed upper triangles, centred in place, so no
        ``(n, n)`` array is built here.

        Args:
            original: the condensed distances the tree was built from
                (:func:`~repro.cluster.distance.condense`); centred in place.

        Raises:
            ValueError: when *original* is not ``n(n-1)/2`` long, such as a
                square matrix.
        """
        x = np.asarray(original, dtype=np.float64)
        y = self.cophenetic_condensed()
        if x.shape != y.shape:
            raise ValueError(
                f"expected {y.size} condensed distances, got shape {x.shape}"
            )
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


def _dense_labels(raw: np.ndarray) -> np.ndarray:
    """Relabel arbitrary ints to 0..k-1 by first occurrence."""
    mapping: dict[int, int] = {}
    out = np.empty_like(raw)
    for index, value in enumerate(raw):
        if value not in mapping:
            mapping[value] = len(mapping)
        out[index] = mapping[value]
    return out
