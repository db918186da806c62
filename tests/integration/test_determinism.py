"""Seed determinism: the whole pipeline, run twice, is one artifact.

DESIGN.md §7 promises that every run is a pure function of the seed.
This pins the strongest observable form of that promise: a second
pipeline run with the same configuration yields *byte-identical*
serialized signatures and identical bicluster membership — not merely
similar accuracy.  The golden-corpus workflow (DESIGN.md §13) depends
on this: a recorded snapshot is only reproducible if training is.
"""

import hashlib

import numpy as np

from repro.core import PSigenePipeline, signature_set_to_json

#: The canonical small configuration's trained artifact, recorded from the
#: full-matrix UPGMA loop (``tests/cluster/full_matrix.py``).  Two runs of
#: one tree agree even when both flip the same UPGMA tie; these do not.
SIGNATURES_SHA256 = (
    "3352f3adcc57128739e0418c6b7481b70120c31dd3b2db7da96ac08f21c2b556"
)
LINKAGE_SHA256 = (
    "3a4c0f7618edb26ce91dbe5a7e33d8a5c0a599cf9b09b827ab5486e8e8161792"
)
COPHENETIC_REPR = "0.7535690118714489"


class TestPinnedArtifact:
    def test_signature_json(self, small_result):
        text = signature_set_to_json(small_result.signature_set)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == SIGNATURES_SHA256

    def test_sample_linkage_bytes(self, small_result):
        linkage = small_result.biclustering.sample_dendrogram.linkage
        assert hashlib.sha256(linkage.tobytes()).hexdigest() == LINKAGE_SHA256

    def test_cophenetic_correlation(self, small_result):
        coefficient = small_result.biclustering.cophenetic_correlation
        assert repr(coefficient) == COPHENETIC_REPR


class TestSeedDeterminism:
    def test_rerun_is_byte_identical(self, small_config, small_result):
        rerun = PSigenePipeline(small_config).run()

        # The deployable artifact: byte-for-byte equal JSON.
        assert (
            signature_set_to_json(rerun.signature_set)
            == signature_set_to_json(small_result.signature_set)
        )

        # Bicluster membership: same clusters, same rows, same features.
        assert len(rerun.biclusters) == len(small_result.biclusters)
        for mine, theirs in zip(rerun.biclusters, small_result.biclusters):
            assert mine.index == theirs.index
            assert mine.is_black_hole == theirs.is_black_hole
            assert np.array_equal(mine.sample_indices, theirs.sample_indices)
            assert np.array_equal(
                mine.feature_indices, theirs.feature_indices
            )

        # The corpus the phases consumed: same samples in the same order.
        assert [s.payload for s in rerun.samples] == [
            s.payload for s in small_result.samples
        ]

        # Training-matrix row identity: same sample ids in the same order.
        assert rerun.matrix.sample_ids == small_result.matrix.sample_ids

    def test_different_seed_differs(self, small_config, small_result):
        # The complement: determinism is not constancy.  A different
        # seed must actually change the crawled corpus; otherwise the
        # byte-identity test above proves nothing.  (Phase 1 alone is
        # enough to show it — no need to train a third pipeline.)
        from dataclasses import replace

        other = PSigenePipeline(
            replace(small_config, seed=small_config.seed + 1)
        ).collect_samples()
        assert [s.payload for s in other] != [
            s.payload for s in small_result.samples
        ]
