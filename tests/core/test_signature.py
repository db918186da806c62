"""Tests for GeneralizedSignature and SignatureSet."""

import pickle

import numpy as np
import pytest

from repro.core import GeneralizedSignature, SignatureSet
from repro.features import build_catalog
from repro.http import HttpRequest, Trace
from repro.ids import PSigeneDetector
from repro.learn import LogisticModel
from repro.normalize import Normalizer
from repro.parallel import run_batch


def _toy_signature(threshold=0.5, bicluster_index=1):
    """Two features: union-select and quote-or; strong positive weights."""
    catalog = build_catalog()
    labels = ["kw:union", "kw:sleep"]
    indices = [catalog.by_label(label).index for label in labels]
    features = catalog.subset(indices)
    model = LogisticModel(np.array([-4.0, 3.0, 3.0]))
    return GeneralizedSignature(
        bicluster_index=bicluster_index,
        features=features,
        model=model,
        threshold=threshold,
        bicluster_feature_count=10,
        training_samples=100,
    )


class TestSignature:
    def test_feature_vector_counts(self):
        signature = _toy_signature()
        vector = signature.feature_vector("1' union select sleep(5)")
        assert vector.tolist() == [1.0, 1.0]

    def test_probability_rises_with_evidence(self):
        signature = _toy_signature()
        none = signature.probability("id=1")
        one = signature.probability("1' union select 2")
        both = signature.probability("1' union select sleep(5)")
        assert none < one < both

    def test_probability_is_sigmoid_of_theta(self):
        signature = _toy_signature()
        # counts (1, 1): z = -4 + 3 + 3 = 2.
        expected = 1 / (1 + np.exp(-2.0))
        assert signature.probability(
            "1' union select sleep(1)"
        ) == pytest.approx(expected)

    def test_matches_uses_threshold(self):
        low = _toy_signature(threshold=0.5)
        high = _toy_signature(threshold=0.99)
        payload = "1' union select sleep(1)"  # p ≈ 0.88
        assert low.matches(payload)
        assert not high.matches(payload)

    def test_misaligned_model_rejected(self):
        catalog = build_catalog().subset([0, 1])
        with pytest.raises(ValueError):
            GeneralizedSignature(
                bicluster_index=1,
                features=catalog,
                model=LogisticModel(np.array([0.0, 1.0])),  # 1 coef, 2 feats
            )

    def test_describe_prints_theta(self):
        signature = _toy_signature()
        text = signature.describe()
        assert "Sig_b1" in text
        assert "-4.000000" in text
        assert "kw:union" in text

    def test_n_features(self):
        assert _toy_signature().n_features == 2


class TestSignatureSet:
    def _set(self):
        return SignatureSet(
            [_toy_signature(bicluster_index=1),
             _toy_signature(threshold=0.9, bicluster_index=2)],
        )

    def test_len_and_iter(self):
        assert len(self._set()) == 2
        assert [s.bicluster_index for s in self._set()] == [1, 2]

    def test_score_is_max_probability(self):
        signatures = self._set()
        payload = "1' union select sleep(1)"
        probabilities = signatures.probabilities(payload)
        score, _fired = signatures.evaluate(payload)
        assert score == pytest.approx(probabilities.max())

    def test_alerts_lists_fired_indices(self):
        signatures = self._set()
        _score, fired = signatures.evaluate("1' union select sleep(1)")
        assert fired == [1]  # second signature's 0.9 threshold not met

    def test_normalization_inside_set(self):
        signatures = self._set()
        raw, _ = signatures.evaluate("1' union select sleep(1)")
        evaded, _ = signatures.evaluate(
            "1%2527/**/UNION/**/SELECT/**/SLEEP(1)"
        )
        assert evaded == pytest.approx(raw)

    def test_subset_by_bicluster(self):
        subset = self._set().subset([2])
        assert len(subset) == 1
        assert subset[0].bicluster_index == 2

    def test_with_threshold_overrides_all(self):
        replaced = self._set().with_threshold(0.1)
        assert all(s.threshold == 0.1 for s in replaced)

    def test_with_threshold_does_not_mutate(self):
        original = self._set()
        original.with_threshold(0.1)
        assert original[1].threshold == 0.9

    def test_empty_set_scores_zero(self):
        assert SignatureSet([]).evaluate("anything")[0] == 0.0

    def test_evaluate_matches_per_signature_probabilities(self):
        # Checked against probabilities(), which walks the signatures
        # independently of the evaluate() single-pass implementation.
        signatures = self._set()
        for payload in (
            "1' union select sleep(1)",
            "1%2527/**/UNION/**/SELECT/**/SLEEP(1)",
            "course=cs101&term=fall2012",
            "",
        ):
            score, fired = signatures.evaluate(payload)
            probabilities = signatures.probabilities(payload)
            assert score == pytest.approx(probabilities.max())
            assert fired == [
                s.bicluster_index
                for s, p in zip(signatures, probabilities)
                if p >= s.threshold
            ]

    def test_evaluate_normalized_skips_normalization(self):
        signatures = self._set()
        payload = "1%27 UNION SELECT SLEEP(1)"
        normalized = signatures.normalizer(payload)
        assert signatures.evaluate_normalized(
            normalized
        ) == signatures.evaluate(payload)

    def test_evaluate_empty_set(self):
        assert SignatureSet([]).evaluate("1' union select 1") == (0.0, [])


class TestEvaluateNormalizedEdges:
    def _tie_signature(self, threshold):
        """Zero model: probability is exactly sigmoid(0) = 0.5 always."""
        catalog = build_catalog()
        features = catalog.subset([0, 1])
        return GeneralizedSignature(
            bicluster_index=1,
            features=features,
            model=LogisticModel(np.zeros(3)),
            threshold=threshold,
            bicluster_feature_count=10,
            training_samples=100,
        )

    def test_empty_set(self):
        assert SignatureSet([]).evaluate_normalized("payload") == (
            0.0, []
        )

    def test_empty_set_does_not_warm(self):
        assert SignatureSet([]).warm() is False

    def test_all_below_threshold(self):
        signatures = SignatureSet([self._tie_signature(0.99)])
        score, fired = signatures.evaluate_normalized("id=1")
        assert score == 0.5
        assert fired == []

    def test_probability_exactly_at_threshold_fires(self):
        # Alerting is >=, not >: a probability equal to the threshold
        # must fire, on the fused and the legacy path alike.
        signatures = SignatureSet([self._tie_signature(0.5)])
        score, fired = signatures.evaluate_normalized("anything")
        assert (score, fired) == (0.5, [1])
        assert signatures.reference().evaluate_normalized("anything") == (
            0.5, [1]
        )

    def test_fused_agrees_with_legacy_over_fuzz_corpus(
        self, small_signatures
    ):
        from repro.conformance import generate_corpus

        payloads = generate_corpus(seed=97, budget="small")
        normalized = [small_signatures.normalizer(p) for p in payloads]
        fused = [
            small_signatures.evaluate_normalized(n) for n in normalized
        ]
        reference = small_signatures.reference()
        legacy = [reference.evaluate_normalized(n) for n in normalized]
        assert fused == legacy

    def test_threshold_sweep_compiles_nothing_new(self, small_signatures):
        # The with_threshold ROC sweep reuses both the compile memo and
        # the fused evaluator: after one evaluation, sweeping thresholds
        # must not invoke re.compile again.
        from repro.regexlib import compile_cache_stats

        small_signatures.evaluate_normalized("1' union select 1")
        before = compile_cache_stats().misses
        for threshold in (0.1, 0.5, 0.9, 0.99):
            swept = small_signatures.with_threshold(threshold)
            swept.evaluate_normalized("1' union select 1")
        assert compile_cache_stats().misses == before


class TestReferencePin:
    """``reference()`` pins a set to the per-signature loop by object."""

    PAYLOAD = "id=1' union select 1,2,3-- -"

    @pytest.fixture
    def calls(self, monkeypatch):
        """Bicluster indices of every ``GeneralizedSignature.probability``
        call made while the test runs."""
        seen: list[int] = []
        original = GeneralizedSignature.probability

        def counting(signature, normalized_payload):
            seen.append(signature.bicluster_index)
            return original(signature, normalized_payload)

        monkeypatch.setattr(GeneralizedSignature, "probability", counting)
        return seen

    def _variants(self, signature_set):
        first_two = [s.bicluster_index for s in signature_set][:2]
        return {
            "as built": signature_set,
            "pickle": pickle.loads(pickle.dumps(signature_set)),
            "subset": signature_set.subset(first_two),
            "with_threshold": signature_set.with_threshold(0.3),
        }

    def test_pin_survives_pickle_subset_and_with_threshold(
        self, small_signatures, calls
    ):
        variants = self._variants(small_signatures.reference())
        for how, pinned in variants.items():
            calls.clear()
            pinned.evaluate(self.PAYLOAD)
            assert calls == [s.bicluster_index for s in pinned], how
            assert not pinned.warm(), how

    def test_pin_survives_run_batch(self, small_signatures, calls):
        trace = Trace(name="pin", requests=[HttpRequest(query=self.PAYLOAD)])
        run_batch(PSigeneDetector(small_signatures.reference()), trace)
        assert calls == [s.bicluster_index for s in small_signatures]

    def test_fused_set_never_enters_the_loop(self, small_signatures, calls):
        for how, fused in self._variants(small_signatures).items():
            assert fused.warm(), how
            fused.evaluate(self.PAYLOAD)
            fused.probabilities(self.PAYLOAD)
        assert calls == []


class TestTrainedSignatures:
    """Against the session-scoped trained pipeline."""

    def test_attacks_score_high(self, small_signatures):
        attacks = [
            "id=1' union select 1,2,concat(database(),char(58)),4-- -",
            "cat=5' and sleep(9)-- -",
            "page=1' or '1'='1",
        ]
        for payload in attacks:
            assert small_signatures.evaluate(payload)[0] > 0.6, payload

    def test_benign_scores_low(self, small_signatures):
        benign = [
            "course=cs101&term=fall2012&section=2",
            "q=campus%20shuttle%20schedule&page=1",
            "invoice=123456&amount=50.00&currency=usd",
            "",
        ]
        for payload in benign:
            assert small_signatures.evaluate(payload)[0] < 0.5, payload

    def test_zero_day_generalization(self, small_signatures):
        """Payloads with structures *not* in the grammar (novel table
        names, novel numbers, different casing) must still be caught —
        the generalization claim of the paper."""
        novel = [
            "zz=777' UNION SELECT password,3,4 FROM secret_vault-- -",
            "k=9' AND SLEEP(123)-- -",
            "v=-42' uNiOn SeLeCt 99,98,97,96,95,94 fRoM flags#",
        ]
        for payload in novel:
            assert small_signatures.evaluate(payload)[0] > 0.6, payload
