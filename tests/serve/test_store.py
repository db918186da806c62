"""Tests for the versioned signature store and its swap protocol."""

import pytest

from repro.core import signature_set_to_json
from repro.ids import DeterministicRuleSet, PSigeneDetector, Rule
from repro.serve import SignatureStore, StoreError, Telemetry


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


class TestStaticStore:
    def test_initial_version(self):
        store = SignatureStore(toy_detector())
        current = store.current()
        assert current.version == 1
        assert current.source == "static"
        assert store.version == 1

    def test_reload_without_path_fails(self):
        store = SignatureStore(toy_detector())
        with pytest.raises(StoreError) as raised:
            store.reload_text("")
        assert raised.value.reason == "config"
        assert store.version == 1

    def test_swap_detector_bumps_version(self):
        store = SignatureStore(toy_detector())
        published = store.swap_detector(
            toy_detector("toy2"), source="test"
        )
        assert published.version == 2
        assert store.current().detector.name == "toy2"


class TestWarmOnPublish:
    def test_mounting_compiles_the_fused_plan(self, small_signatures):
        # Publishing includes the fast path: the first request against a
        # freshly mounted detector must not pay fused-compile cost.
        detector = PSigeneDetector(small_signatures)
        detector.signature_set._fused = None
        SignatureStore(detector)
        assert detector.signature_set._fused is not None

    def test_swap_compiles_before_publish(self, small_signatures):
        store = SignatureStore(toy_detector())
        replacement = PSigeneDetector(small_signatures)
        replacement.signature_set._fused = None
        store.swap_detector(replacement, source="test")
        assert replacement.signature_set._fused is not None

    def test_detectors_without_signature_sets_are_fine(self):
        assert SignatureStore(toy_detector()).version == 1


class TestSignatureSwap:
    def test_from_file_mounts_psigene(self, small_signatures, tmp_path):
        path = tmp_path / "signatures.json"
        path.write_text(signature_set_to_json(small_signatures))
        store = SignatureStore.from_file(str(path))
        assert store.version == 1
        assert store.current().source == f"file:{path}"
        detection = store.current().detector.inspect(
            "id=1' union select 1,2,3-- -"
        )
        assert detection.alert

    def test_swap_json_bumps_version(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        published = store.swap_json(
            signature_set_to_json(small_signatures)
        )
        assert published.version == 2
        assert published.source == "inline"
        # The default factory keeps the mounted detector's name.
        assert published.detector.name == "psigene"

    def test_bad_json_keeps_old_version(self, small_signatures):
        telemetry = Telemetry()
        store = SignatureStore(
            PSigeneDetector(small_signatures), telemetry=telemetry
        )
        before = store.current()
        with pytest.raises(StoreError):
            store.swap_json("{not json")
        assert store.current() is before
        assert telemetry.counter("reload_failures") == 1
        assert telemetry.counter("reloads") == 0

    def test_reload_from_path(self, small_signatures, tmp_path):
        path = tmp_path / "signatures.json"
        path.write_text(signature_set_to_json(small_signatures))
        store = SignatureStore.from_file(str(path))
        text, source = store.reload_text(" \n")  # a blank body
        assert source == f"file:{path}"
        published = store.swap_json(text, source=source)
        assert published.version == 2
        assert published.source == f"file:{path}"
        # A body that is not blank is the document itself.
        assert store.reload_text(text) == (text, "inline")

    def test_reload_missing_file(self, small_signatures):
        telemetry = Telemetry()
        store = SignatureStore(
            PSigeneDetector(small_signatures), path="/nonexistent.json",
            telemetry=telemetry,
        )
        with pytest.raises(StoreError) as raised:
            store.reload_text("")
        assert raised.value.reason == "io"
        assert telemetry.counter("reload_rejected") == 1
        assert store.version == 1

    def test_reload_counter(self, small_signatures):
        telemetry = Telemetry()
        store = SignatureStore(
            PSigeneDetector(small_signatures), telemetry=telemetry
        )
        store.swap_json(signature_set_to_json(small_signatures))
        store.swap_json(signature_set_to_json(small_signatures))
        assert telemetry.counter("reloads") == 2

    def test_old_snapshot_survives_swap(self, small_signatures):
        """In-flight readers keep answering with the version they took."""
        store = SignatureStore(PSigeneDetector(small_signatures))
        snapshot = store.current()
        store.swap_detector(toy_detector(), source="test")
        assert snapshot.version == 1
        assert snapshot.detector.inspect(
            "id=1' union select 1,2,3-- -"
        ).alert
        assert store.current().version == 2


class _ExplodingWarmSet:
    """Stand-in signature set whose fused plan cannot compile."""

    def warm(self):
        raise RuntimeError("fused plan exploded")


class _ExplodingWarmDetector:
    name = "exploding"

    def __init__(self):
        self.signature_set = _ExplodingWarmSet()

    def inspect(self, payload):  # pragma: no cover - never reached
        raise AssertionError("rejected detector must never serve")


class TestWarmRejection:
    def test_swap_rejects_candidate_that_fails_to_warm(self):
        telemetry = Telemetry()
        store = SignatureStore(toy_detector(), telemetry=telemetry)
        before = store.current()
        with pytest.raises(StoreError) as excinfo:
            store.swap_detector(_ExplodingWarmDetector(), source="test")
        assert excinfo.value.reason == "warm"
        assert store.current() is before
        assert telemetry.counter("reload_rejected") == 1
        assert telemetry.counter("reloads") == 0

    def test_stage_rejects_candidate_that_fails_to_warm(self):
        telemetry = Telemetry()
        store = SignatureStore(toy_detector(), telemetry=telemetry)
        with pytest.raises(StoreError) as excinfo:
            store.stage_detector(
                _ExplodingWarmDetector(), generation=2, source="test"
            )
        assert excinfo.value.reason == "warm"
        assert telemetry.counter("reload_rejected") == 1
        # Nothing staged: a later commit of that generation must fail.
        with pytest.raises(StoreError):
            store.commit_staged(2)
        assert store.version == 1


class TestTwoPhaseStaging:
    def test_stage_then_commit_publishes(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        store.stage_json(
            signature_set_to_json(small_signatures),
            generation=2,
            source="fleet",
        )
        # Staging alone publishes nothing.
        assert store.version == 1
        published = store.commit_staged(2)
        assert published.version == 2
        assert published.source == "fleet"
        assert store.version == 2

    def test_stage_stale_generation_rejected(self):
        store = SignatureStore(toy_detector())
        with pytest.raises(StoreError) as excinfo:
            store.stage_detector(
                toy_detector("toy2"), generation=1, source="test"
            )
        assert excinfo.value.reason == "stage"
        assert store.version == 1

    def test_commit_without_stage_rejected(self):
        store = SignatureStore(toy_detector())
        with pytest.raises(StoreError) as excinfo:
            store.commit_staged(5)
        assert excinfo.value.reason == "stage"
        assert store.version == 1

    def test_stage_bad_json_rejects_without_staging(self):
        telemetry = Telemetry()
        store = SignatureStore(toy_detector(), telemetry=telemetry)
        for body in ("{not json", "[]"):
            with pytest.raises(StoreError) as excinfo:
                store.stage_json(body, generation=2, source="test")
            assert excinfo.value.reason == "parse"
        assert telemetry.counter("reload_rejected") == 2
        with pytest.raises(StoreError):
            store.commit_staged(2)

    def test_abort_staged_drops_candidate(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        store.stage_json(
            signature_set_to_json(small_signatures), generation=2
        )
        store.abort_staged(2)
        with pytest.raises(StoreError):
            store.commit_staged(2)
        assert store.version == 1
        # Aborting a never-staged generation is a no-op.
        store.abort_staged(7)
        store.abort_staged()

    def test_initial_version_for_respawned_shard(self):
        # A respawned fleet shard mounts the fleet's current generation.
        store = SignatureStore(toy_detector(), initial_version=4)
        assert store.version == 4
        with pytest.raises(StoreError):
            store.stage_detector(
                toy_detector("toy2"), generation=4, source="test"
            )
        store.stage_detector(toy_detector("toy2"), generation=5, source="t")
        assert store.commit_staged(5).version == 5


class TestStagingEdgeCases:
    """Staging edge cases the canary loop leans on: double-stage
    replacement, deterministic misuse errors, and warm failures that
    leave both the incumbent and other staged candidates untouched."""

    def test_double_stage_replaces_cleanly(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        first = PSigeneDetector(small_signatures, name="first")
        second = PSigeneDetector(small_signatures, name="second")
        store.stage_detector(first, generation=2, source="shadow")
        store.stage_detector(second, generation=2, source="reload")
        # The re-stage replaced the candidate, not stacked beside it.
        assert store.staged_generations() == (2,)
        staged = store.get_staged(2)
        assert staged.detector is second
        assert staged.source == "reload"
        assert store.commit_staged(2).detector is second

    def test_get_staged_views(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        assert store.get_staged(2) is None
        assert store.staged_generations() == ()
        store.stage_json(
            signature_set_to_json(small_signatures), generation=3
        )
        store.stage_json(
            signature_set_to_json(small_signatures), generation=2
        )
        assert store.staged_generations() == (2, 3)
        assert store.get_staged(3).version == 3

    def test_commit_without_stage_raises_deterministically(self):
        store = SignatureStore(toy_detector())
        for _ in range(3):
            with pytest.raises(StoreError) as excinfo:
                store.commit_staged(2)
            assert excinfo.value.reason == "stage"
            assert store.version == 1

    def test_repeated_abort_is_a_noop(self, small_signatures):
        store = SignatureStore(PSigeneDetector(small_signatures))
        store.stage_json(
            signature_set_to_json(small_signatures), generation=2
        )
        store.abort_staged(2)
        # Aborting again — and aborting everything — stays a no-op.
        store.abort_staged(2)
        store.abort_staged()
        store.abort_staged()
        assert store.version == 1
        assert store.staged_generations() == ()

    def test_failed_warm_during_stage_leaves_everything(
        self, small_signatures
    ):
        """A candidate that blows up while warming must not disturb the
        incumbent or a previously staged (healthy) candidate."""

        class ExplodingSet:
            def warm(self):
                raise RuntimeError("boom during fused compile")

        class ExplodingDetector:
            name = "exploding"
            signature_set = ExplodingSet()

        store = SignatureStore(PSigeneDetector(small_signatures))
        incumbent = store.current()
        store.stage_json(
            signature_set_to_json(small_signatures), generation=2
        )
        with pytest.raises(StoreError) as excinfo:
            store.stage_detector(
                ExplodingDetector(), generation=3, source="bad"
            )
        assert excinfo.value.reason == "warm"
        assert store.current() is incumbent
        assert store.version == 1
        # The healthy candidate is still there and still commits.
        assert store.staged_generations() == (2,)
        assert store.commit_staged(2).version == 2
