"""Tests for incremental signature updates (Experiment 2 substrate)."""

import numpy as np
import pytest

from repro.core import incremental_update


class TestIncrementalUpdate:
    def test_empty_update_is_noop(self, small_pipeline, small_result):
        update = incremental_update(small_pipeline, small_result, [])
        assert update.signature_set is small_result.signature_set
        assert update.added_rows == 0

    def test_new_samples_assigned_to_biclusters(
        self, small_pipeline, small_result
    ):
        fresh = [
            "id=9' union select 1,2,3,4-- -",
            "cat=4' and sleep(7)-- -",
            "u=1' or '1'='1",
        ]
        update = incremental_update(small_pipeline, small_result, fresh)
        assert update.added_rows == 3
        assert sum(update.assigned.values()) == 3

    def test_signature_count_preserved(self, small_pipeline, small_result):
        fresh = ["id=9' union select 1,2-- -"] * 5
        update = incremental_update(small_pipeline, small_result, fresh)
        assert len(update.signature_set) == len(small_result.signature_set)

    def test_theta_actually_retrained(self, small_pipeline, small_result):
        fresh = [
            f"id={i}' union select {i},2,3-- -" for i in range(40)
        ]
        update = incremental_update(small_pipeline, small_result, fresh)
        changed = any(
            len(new.model.theta) != len(old.model.theta)
            or not np.allclose(new.model.theta, old.model.theta)
            for new, old in zip(
                update.signature_set, small_result.signature_set
            )
        )
        assert changed

    def test_cluster_structure_fixed(self, small_pipeline, small_result):
        """The paper retrains Θ only; bicluster feature sets must not
        change."""
        fresh = ["id=5' or 1=1-- -"] * 10
        update = incremental_update(small_pipeline, small_result, fresh)
        for new, old in zip(
            update.signature_set, small_result.signature_set
        ):
            assert new.bicluster_index == old.bicluster_index
            assert new.bicluster_feature_count == old.bicluster_feature_count

    def test_updated_set_still_detects(self, small_pipeline, small_result):
        fresh = [
            "id=9' union select 1,2,3,4-- -",
            "cat=4' and sleep(7)-- -",
        ]
        update = incremental_update(small_pipeline, small_result, fresh)
        assert update.signature_set.evaluate(
            "x=1' union select 7,8,9-- -"
        )[0] > 0.6


class TestWarmStrategy:
    FRESH = [
        "id=9' union select 1,2,3,4-- -",
        "cat=4' and sleep(7)-- -",
        "u=1' or '1'='1",
    ] * 5

    def test_unknown_strategy_rejected(self, small_pipeline, small_result):
        with pytest.raises(ValueError):
            incremental_update(
                small_pipeline, small_result, self.FRESH, strategy="magic"
            )

    def test_warm_keeps_feature_subsets(self, small_pipeline,
                                        small_result):
        update = incremental_update(
            small_pipeline, small_result, self.FRESH, strategy="warm"
        )
        for new, old in zip(
            update.signature_set, small_result.signature_set
        ):
            assert new.features.patterns == old.features.patterns

    def test_warm_cheaper_than_retrain(self, small_pipeline, small_result):
        warm = incremental_update(
            small_pipeline, small_result, self.FRESH, strategy="warm"
        )
        retrain = incremental_update(
            small_pipeline, small_result, self.FRESH, strategy="retrain"
        )
        assert warm.newton_iterations < retrain.newton_iterations

    def test_warm_still_detects(self, small_pipeline, small_result):
        update = incremental_update(
            small_pipeline, small_result, self.FRESH, strategy="warm"
        )
        assert update.signature_set.evaluate(
            "x=1' union select 7,8,9-- -"
        )[0] > 0.6

    def test_warm_keeps_thresholds(self, small_pipeline, small_result):
        update = incremental_update(
            small_pipeline, small_result, self.FRESH, strategy="warm"
        )
        for new, old in zip(
            update.signature_set, small_result.signature_set
        ):
            assert new.threshold == old.threshold


class TestWarmStateValidation:
    """Hardening: a warm state whose catalog disagrees with its matrix
    (or whose signatures reference foreign features) must die loudly
    instead of silently mis-indexing columns."""

    FRESH = ["id=9' union select 1,2-- -"]

    def test_catalog_count_mismatch_rejected(
        self, small_pipeline, small_result
    ):
        from dataclasses import replace

        from repro.features.definitions import FeatureCatalog

        truncated = replace(
            small_result,
            catalog=FeatureCatalog(list(small_result.catalog)[:-1]),
        )
        with pytest.raises(ValueError, match="catalog mismatch"):
            incremental_update(small_pipeline, truncated, self.FRESH)

    def test_catalog_order_mismatch_rejected(
        self, small_pipeline, small_result
    ):
        from dataclasses import replace

        from repro.features.definitions import FeatureCatalog

        shuffled = list(small_result.catalog)
        shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
        reordered = replace(
            small_result, catalog=FeatureCatalog(shuffled)
        )
        with pytest.raises(ValueError, match="order diverged"):
            incremental_update(small_pipeline, reordered, self.FRESH)

    def test_foreign_signature_features_rejected(
        self, small_pipeline, small_result
    ):
        from dataclasses import replace

        from repro.core.signature import SignatureSet
        from repro.features.definitions import (
            SOURCE_RESERVED,
            FeatureCatalog,
            FeatureDefinition,
        )

        old = small_result.signature_set.signatures[0]
        alien = FeatureCatalog([
            FeatureDefinition(
                index=position,
                pattern=rf"zzz-never-seen-{position}",
                label=f"alien-{position}",
                source=SOURCE_RESERVED,
            )
            for position in range(len(old.features))
        ])
        doctored = SignatureSet(
            [replace(old, features=alien, _compiled=[])]
            + list(small_result.signature_set.signatures[1:]),
            normalizer=small_result.signature_set.normalizer,
        )
        state = replace(small_result, signature_set=doctored)
        with pytest.raises(ValueError, match="absent from the warm"):
            incremental_update(
                small_pipeline, state, self.FRESH, strategy="warm"
            )

    def test_cold_start_without_biclusters_rejected(
        self, small_pipeline, small_result
    ):
        from dataclasses import replace

        cold = replace(
            small_result,
            biclusters=[
                replace(b, is_black_hole=True)
                for b in small_result.biclusters
            ],
        )
        with pytest.raises(ValueError, match="cold start"):
            incremental_update(small_pipeline, cold, self.FRESH)

    def test_cold_start_empty_payloads_is_noop(
        self, small_pipeline, small_result
    ):
        # The other cold-start edge: nothing to fold in is a no-op,
        # not an error, even before any validation runs.
        update = incremental_update(small_pipeline, small_result, [])
        assert update.signature_set is small_result.signature_set
        assert update.newton_iterations == 0
