"""Batched / multiprocess matching must agree with the serial engine."""

import os
import sys
import threading
import time

import pytest

from repro.core import SignatureSet
from repro.http import HttpRequest, LABEL_ATTACK, LABEL_BENIGN, Trace
from repro.ids import PSigeneDetector, SignatureEngine
from repro.ids.rules import Detection
from repro.parallel import run_batch
from repro.parallel.batch import _with_cached_normalizer


@pytest.fixture(scope="module")
def mixed_trace():
    """Attacks and benign requests interleaved, with repeats (cache food)."""
    attack = [
        "id=1' union select 1,2,3-- -",
        "q=2' and sleep(5)-- -",
        "u=3' or '1'='1",
        "x=4' and extractvalue(1,concat(0x7e,user()))-- -",
    ]
    benign = [
        "course=cs101&term=fall2012",
        "q=select+a+union+rep",
        "page=3&sort=desc",
    ]
    requests = []
    for round_index in range(20):
        for payload in attack:
            requests.append(
                HttpRequest(query=payload, label=LABEL_ATTACK)
            )
        for payload in benign:
            requests.append(
                HttpRequest(query=payload, label=LABEL_BENIGN)
            )
    return Trace(name="mixed", requests=requests)


def _alerts_key(run):
    return [
        (a.request_index, a.detector, a.matched, pytest.approx(a.score))
        for a in run.alerts
    ]


class TestRunBatchParity:
    @pytest.mark.smoke
    def test_two_workers_identical(self, small_signatures, mixed_trace):
        engine = SignatureEngine(PSigeneDetector(small_signatures))
        serial = engine.run(mixed_trace)
        batched = engine.run_batch(mixed_trace, workers=2)
        assert batched.alert_flags.tolist() == serial.alert_flags.tolist()
        assert _alerts_key(batched) == _alerts_key(serial)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_worker_sweep_identical(
        self, workers, small_signatures, mixed_trace
    ):
        engine = SignatureEngine(PSigeneDetector(small_signatures))
        serial = engine.run(mixed_trace)
        batched = engine.run_batch(mixed_trace, workers=workers)
        assert batched.alert_flags.tolist() == serial.alert_flags.tolist()
        assert _alerts_key(batched) == _alerts_key(serial)

    def test_scores_populated_for_every_request(
        self, small_signatures, mixed_trace
    ):
        detector = PSigeneDetector(small_signatures)
        run = run_batch(detector, mixed_trace, workers=2)
        assert run.scores.shape == (len(mixed_trace),)
        spot = [0, len(mixed_trace) // 2, len(mixed_trace) - 1]
        for index in spot:
            score, _ = small_signatures.evaluate(
                mixed_trace[index].flat_payload()
            )
            assert run.scores[index] == pytest.approx(score)


class TestEdgeCases:
    def test_empty_trace(self, small_signatures):
        run = run_batch(
            PSigeneDetector(small_signatures),
            Trace(name="empty"),
            workers=4,
        )
        assert run.alert_flags.size == 0
        assert run.alerts == []
        assert run.scores.size == 0

    def test_empty_signature_set(self, mixed_trace):
        run = run_batch(
            PSigeneDetector(SignatureSet([])), mixed_trace, workers=2
        )
        assert not run.alert_flags.any()
        assert run.alerts == []

    def test_invalid_workers_rejected(self, small_signatures, mixed_trace):
        with pytest.raises(ValueError):
            run_batch(
                PSigeneDetector(small_signatures), mixed_trace, workers=0
            )


class _KeywordDetector:
    """A trivial picklable detector with no signature_set attribute."""

    name = "keyword"

    def inspect(self, payload: str) -> Detection:
        hit = "union" in payload.lower()
        return Detection(
            alert=hit, score=1.0 if hit else 0.0,
            matched_sids=[1] if hit else [],
        )


class TestGenericDetectors:
    def test_detector_without_signature_set(self, mixed_trace):
        detector = _KeywordDetector()
        serial = SignatureEngine(detector).run(mixed_trace)
        batched = run_batch(detector, mixed_trace, workers=2)
        assert batched.alert_flags.tolist() == serial.alert_flags.tolist()

    def test_cache_wrapper_leaves_foreign_detectors_alone(self):
        detector = _KeywordDetector()
        assert _with_cached_normalizer(detector) is detector

    def test_cache_wrapper_does_not_mutate_original(self, small_signatures):
        detector = PSigeneDetector(small_signatures)
        clone = _with_cached_normalizer(detector)
        assert clone is not detector
        assert detector.signature_set is small_signatures
        assert clone.signature_set.signatures == small_signatures.signatures


class _ConstantDetector:
    """A picklable detector that always, or never, alerts."""

    def __init__(self, alert: bool) -> None:
        self.alert = alert
        self.name = "always" if alert else "never"

    def inspect(self, payload: str) -> Detection:
        return Detection(
            alert=self.alert,
            score=1.0 if self.alert else 0.0,
            matched_sids=[1] if self.alert else [],
        )


class TestConcurrentInProcessRuns:
    def test_threads_score_with_their_own_detector(self):
        """In-process runs share no state: threads calling ``run_batch``
        at once each get their own detector's verdicts on every run."""
        trace = Trace(
            name="race",
            requests=[HttpRequest(query=f"id={i}") for i in range(32)],
        )
        n_threads = 2 * max(2, (os.cpu_count() or 1) // 2 + 1)
        detectors = [_ConstantDetector(i % 2 == 0) for i in range(n_threads)]
        deadline = time.monotonic() + 2.0
        wrong: list[str] = []

        def hammer(detector):
            expected = [detector.alert] * len(trace)
            while time.monotonic() < deadline and not wrong:
                run = run_batch(detector, trace)
                if run.alert_flags.tolist() != expected:
                    wrong.append(detector.name)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(d,), daemon=True)
                for d in detectors
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
