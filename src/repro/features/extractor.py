"""Feature extraction: normalized sample text → count vector / matrix.

Section II-B: "All features included in the set were of numeric type, each
one measuring the number of times a feature was found in an attack sample."
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Sequence

import numpy as np

from repro.features.definitions import FeatureCatalog, build_catalog
from repro.features.matrix import FeatureMatrix
from repro.match import matcher_for_patterns
from repro.normalize import Normalizer
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.regexlib import compile_pattern

# Cached when the catalog defeats the fused compiler; the reference loop
# then answers every extraction without retrying the build.
_UNFUSABLE = object()


class FeatureExtractor:
    """Counts every catalog feature in (normalized) payload strings.

    Patterns are compiled once at construction; extraction is then a pure
    function of the input string, making the extractor safe to share.
    """

    def __init__(
        self,
        catalog: FeatureCatalog | None = None,
        normalizer: Normalizer | None = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else build_catalog()
        self.normalizer = normalizer if normalizer is not None else Normalizer()
        self._compiled = [compile_pattern(d.pattern) for d in self.catalog]
        self._fused = None

    def _fused_matcher(self):
        """The catalog's fused matcher, built lazily; ``_UNFUSABLE``
        when the catalog cannot be fused (the reference loop runs)."""
        if self._fused is None:
            try:
                self._fused = matcher_for_patterns(
                    tuple(d.pattern for d in self.catalog)
                )
            except Exception:
                self._fused = _UNFUSABLE
        return self._fused

    def __getstate__(self) -> dict:
        """Pickle without the fused matcher; worker processes rebuild it
        lazily from their own matcher memo."""
        state = dict(self.__dict__)
        state["_fused"] = None
        return state

    def extract(self, payload: str) -> np.ndarray:
        """Count vector for one payload (normalization included).

        Runs the fused engine (:mod:`repro.match`), falling back to the
        per-feature reference loop when the catalog cannot be fused; the
        two produce identical counts (the conformance extraction oracle
        checks this).
        """
        normalized = self.normalizer(payload)
        matcher = self._fused_matcher()
        if matcher is not _UNFUSABLE:
            return np.asarray(matcher.counts(normalized), dtype=np.int32)
        counts = np.zeros(len(self.catalog), dtype=np.int32)
        for column, compiled in enumerate(self._compiled):
            counts[column] = sum(1 for _ in compiled.finditer(normalized))
        return counts

    def extract_many(
        self,
        payloads: Iterable[str],
        *,
        sample_ids: Sequence[str] | None = None,
        workers: int = 1,
    ) -> FeatureMatrix:
        """Count matrix for a collection of payloads.

        Every worker count runs the same per-payload code: a copy of this
        extractor whose normalizer sits behind a 4,096-entry LRU
        (:class:`~repro.parallel.cache.CachedNormalizer`), fanned out by
        :func:`~repro.parallel.fanout.process_map`.  Rows come back in
        input order, so the matrix is identical at any worker count.

        Args:
            payloads: raw payload strings (query strings / form bodies).
            sample_ids: optional row identifiers; defaults to ``s<i>``.
                Must be one per payload — a mismatched length would silently
                mislabel every row after the shorter sequence ends.
            workers: worker processes; 1 stays in-process.

        Raises:
            ValueError: when ``sample_ids`` is given with a length different
                from the payload count, or when ``workers < 1``.
        """
        # Deferred: repro.parallel imports the detector stack, which
        # imports this module.
        from repro.parallel import CachedNormalizer, process_map

        items = list(payloads)
        if sample_ids is not None and len(sample_ids) != len(items):
            raise ValueError(
                f"{len(sample_ids)} sample ids for {len(items)} payloads"
            )
        with trace.span(
            "features.extract_many", payloads=len(items), workers=workers,
        ) as extract_span:
            worker = copy.copy(self)
            worker.normalizer = CachedNormalizer(self.normalizer)
            counts = np.vstack(
                process_map(_count_rows, worker, items, workers)
            )
            if sample_ids is None:
                ids = [f"s{i}" for i in range(counts.shape[0])]
            else:
                ids = list(sample_ids)
            matrix = FeatureMatrix(
                counts=counts, catalog=self.catalog, sample_ids=ids
            )
            self._record_metrics(matrix, extract_span)
        return matrix

    def _record_metrics(self, matrix: FeatureMatrix, extract_span) -> None:
        """Feed the extraction counters: payload volume plus per-feature
        match totals (one labeled series per catalog feature).

        Totals are computed once per batch from the finished matrix —
        per-payload counter updates would put a few hundred lock
        acquisitions in the middle of the extraction loop.
        """
        registry = get_registry()
        registry.counter(
            "repro_features_payloads_total",
            "Payloads run through feature extraction.",
        ).inc(matrix.counts.shape[0])
        totals = matrix.counts.sum(axis=0)
        if len(totals) != len(matrix.catalog):
            # zip() over mismatched lengths would silently truncate the
            # per-feature series instead of surfacing the bad matrix.
            raise ValueError(
                f"count matrix is {len(totals)} columns wide but its "
                f"catalog defines {len(matrix.catalog)} features"
            )
        total_matches = int(totals.sum())
        registry.counter(
            "repro_features_matches_total",
            "Feature pattern matches counted, over all features.",
        ).inc(total_matches)
        for definition, column_total in zip(matrix.catalog, totals):
            if column_total:
                registry.counter(
                    "repro_feature_matches_total",
                    "Feature pattern matches counted, per feature.",
                    labels={"feature": definition.label},
                ).inc(int(column_total))
        extract_span.set(matches=total_matches)

    def with_catalog(self, catalog: FeatureCatalog) -> "FeatureExtractor":
        """A new extractor over a (typically pruned) catalog."""
        return FeatureExtractor(catalog=catalog, normalizer=self.normalizer)


def _count_rows(
    extractor: FeatureExtractor, payloads: Sequence[str]
) -> np.ndarray:
    """``process_map`` work: one ``int32`` count array per chunk."""
    counts = np.zeros((len(payloads), len(extractor.catalog)), np.int32)
    for row, payload in enumerate(payloads):
        counts[row] = extractor.extract(payload)
    return counts
