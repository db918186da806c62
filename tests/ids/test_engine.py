"""Tests for the IDS engine."""

import pytest

from repro.http import HttpRequest, LABEL_ATTACK, LABEL_BENIGN, Trace
from repro.ids import (
    DeterministicRuleSet,
    PSigeneDetector,
    Rule,
    SignatureEngine,
)
from repro.surfaces import InjectionSurface, parse_surfaces


@pytest.fixture
def trace():
    trace = Trace(name="t")
    trace.append(HttpRequest(query="id=1' union select 1", label=LABEL_ATTACK))
    trace.append(HttpRequest(query="q=hello", label=LABEL_BENIGN))
    trace.append(HttpRequest(query="id=2' union select 2", label=LABEL_ATTACK))
    return trace


@pytest.fixture
def detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


class TestEngineRun:
    def test_alert_flags_align_with_trace(self, trace, detector):
        run = SignatureEngine(detector).run(trace)
        assert run.alert_flags.tolist() == [True, False, True]

    def test_alert_records(self, trace, detector):
        run = SignatureEngine(detector).run(trace)
        assert run.alert_count == 2
        assert [a.request_index for a in run.alerts] == [0, 2]
        assert all(a.detector == "toy" for a in run.alerts)
        assert all(a.matched == [1] for a in run.alerts)

    def test_no_timing_by_default(self, trace, detector):
        run = SignatureEngine(detector).run(trace)
        assert run.timings.size == 0

    def test_timing_measured(self, trace, detector):
        run = SignatureEngine(detector).run(trace, measure_time=True)
        assert run.timings.shape == (3,)
        assert (run.timings > 0).all()
        low, mean, high = run.timing_summary_us()
        assert low <= mean <= high

    def test_empty_trace(self, detector):
        run = SignatureEngine(detector).run(Trace(name="empty"))
        assert run.alert_count == 0
        assert run.timing_summary_us() == (0.0, 0.0, 0.0)

    def test_inspect_request(self, detector):
        engine = SignatureEngine(detector)
        request = HttpRequest(query="a=1' union select 2")
        assert engine.inspect_request(request).alert


class TestInspectRequest:
    def test_uses_detector_visible_payload(self, detector):
        """inspect_request must see exactly request.flat_payload(): query
        string plus form body, never host or path."""
        engine = SignatureEngine(detector)
        body_attack = HttpRequest(
            method="POST",
            path="/login",
            headers={"content-type": "application/x-www-form-urlencoded"},
            body="user=x' union select 1--",
        )
        assert engine.inspect_request(body_attack).alert
        path_only = HttpRequest(path="/union select/nothing", query="q=1")
        assert not engine.inspect_request(path_only).alert

    def test_combines_query_and_form_body(self, detector):
        engine = SignatureEngine(detector)
        split_attack = HttpRequest(
            method="POST",
            query="a=1' union",
            headers={"content-type": "application/x-www-form-urlencoded"},
            body="b= select 2",
        )
        # Neither half alone matches; payload() joins them with '&'.
        assert not engine.inspect_payload("a=1' union").alert
        assert not engine.inspect_payload("b= select 2").alert
        detection = engine.inspect_request(split_attack)
        assert detection.alert is (
            engine.inspect_payload("a=1' union&b= select 2").alert
        )

    def test_empty_payload(self, detector):
        engine = SignatureEngine(detector)
        detection = engine.inspect_request(HttpRequest())
        assert not detection.alert
        assert detection.score == 0.0

    def test_matches_direct_inspect(self, small_signatures):
        engine = SignatureEngine(PSigeneDetector(small_signatures))
        request = HttpRequest(query="id=1' union select 1,2,3-- -")
        via_request = engine.inspect_request(request)
        via_payload = engine.inspect_payload(request.flat_payload())
        assert via_request.alert == via_payload.alert
        assert via_request.score == via_payload.score
        assert via_request.matched_sids == via_payload.matched_sids


class TestEngineTelemetry:
    def test_single_inspections_feed_counters(self, detector):
        from repro.serve import Telemetry

        telemetry = Telemetry()
        engine = SignatureEngine(detector, telemetry=telemetry)
        engine.inspect_request(HttpRequest(query="a=1' union select 2"))
        engine.inspect_payload("q=hello")
        assert telemetry.counter("inspected") == 2
        assert telemetry.counter("alerted") == 1
        assert telemetry.snapshot()["latency"]["service"]["count"] == 2

    def test_offline_run_feeds_same_schema(self, trace, detector):
        from repro.serve import Telemetry

        telemetry = Telemetry()
        run = SignatureEngine(detector, telemetry=telemetry).run(trace)
        assert telemetry.counter("inspected") == len(trace)
        assert telemetry.counter("alerted") == run.alert_count
        assert telemetry.snapshot()["latency"]["service"]["count"] == len(
            trace
        )

    def test_run_batch_feeds_counters(self, trace, detector):
        from repro.serve import Telemetry

        telemetry = Telemetry()
        run = SignatureEngine(detector, telemetry=telemetry).run_batch(
            trace, workers=1
        )
        assert telemetry.counter("inspected") == len(trace)
        assert telemetry.counter("alerted") == run.alert_count

    def test_no_telemetry_no_overhead_path(self, trace, detector):
        run = SignatureEngine(detector).run(trace)
        assert run.timings.size == 0  # measuring stays opt-in


class TestRunBatchSurfaces:
    """``run_batch`` scores the flattened legacy payload only; a wider
    selection must fail loudly instead of silently dropping surfaces."""

    @pytest.mark.parametrize("spec", ["all", "query", "query,form,json"])
    def test_non_legacy_selection_rejected(self, trace, detector, spec):
        engine = SignatureEngine(detector, surfaces=parse_surfaces(spec))
        with pytest.raises(ValueError, match=r"run\(\)"):
            engine.run_batch(trace)

    def test_legacy_selection_in_any_order_accepted(self, trace, detector):
        engine = SignatureEngine(detector, surfaces=(
            InjectionSurface.FORM_BODY, InjectionSurface.QUERY,
        ))
        assert (
            engine.run_batch(trace).alert_flags.tolist()
            == engine.run(trace).alert_flags.tolist()
        )


class TestPSigeneDetector:
    def test_wraps_signature_set(self, small_signatures):
        detector = PSigeneDetector(small_signatures)
        detection = detector.inspect("id=1' union select 1,2,3-- -")
        assert detection.alert
        assert detection.score > 0.5
        assert detection.matched_sids  # bicluster numbers

    def test_benign_no_alert(self, small_signatures):
        detector = PSigeneDetector(small_signatures)
        assert not detector.inspect("course=cs101&term=fall2012").alert

    def test_name_used_in_runs(self, small_signatures, trace):
        detector = PSigeneDetector(small_signatures, name="psigene-9")
        run = SignatureEngine(detector).run(trace)
        assert run.detector == "psigene-9"

    def test_inspect_scores_each_signature_once(self, small_signatures):
        # Regression: inspect() used to call alerts() + score(), each of
        # which normalized the payload and evaluated every signature,
        # doubling per-request work on the hot path.
        calls = {"probability": 0}
        original = type(small_signatures[0]).probability

        class Counting(type(small_signatures[0])):
            def probability(self, normalized_payload):
                calls["probability"] += 1
                return original(self, normalized_payload)

        counted = [
            Counting(
                bicluster_index=s.bicluster_index,
                features=s.features,
                model=s.model,
                threshold=s.threshold,
            )
            for s in small_signatures
        ]
        signature_set = type(small_signatures)(
            counted, normalizer=small_signatures.normalizer
        )
        PSigeneDetector(signature_set.reference()).inspect(
            "id=1' union select 1,2,3-- -"
        )
        assert calls["probability"] == len(counted)
        # The fused engine goes further: per-signature probability() is
        # bypassed entirely in favor of the shared count vector.
        calls["probability"] = 0
        PSigeneDetector(signature_set).inspect(
            "id=1' union select 1,2,3-- -"
        )
        assert calls["probability"] == 0
