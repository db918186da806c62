"""The differential oracle end-to-end.

Two acceptance-level facts live here: a healthy detector is conformant
across every registered path, and an *injected* scoring perturbation is
actually caught — the oracle must be able to fail, or its green runs
mean nothing.
"""

import pytest

from repro.conformance import (
    ConformanceError,
    DetectorPath,
    Oracle,
    SerialPath,
    Verdict,
    default_paths,
    extraction_divergences,
    format_report,
    generate_corpus,
    serial_verdicts,
)
from repro.ids import DeterministicRuleSet, PSigeneDetector, Rule
from repro.obs.registry import get_registry


def toy_detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


PAYLOADS = [
    "id=1' union select 1,2,3-- -",
    "q=hello world",
    "",
    "q=a+b",
    "search=union+square+hotels",
]


class PerturbedPath(DetectorPath):
    """A deliberately wrong path: scores drift on alerting payloads."""

    name = "perturbed"

    def run(self, detector, payloads):
        out = []
        for verdict in serial_verdicts(detector, payloads):
            if verdict.alert:
                out.append(Verdict(
                    alert=verdict.alert,
                    score=verdict.score + 0.25,
                    fired=verdict.fired,
                ))
            else:
                out.append(verdict)
        return out


class ExplodingPath(DetectorPath):
    name = "exploding"

    def run(self, detector, payloads):
        raise ConformanceError("this path always fails")


class TestOracleConformant:
    def test_toy_detector_agrees_on_every_path(self):
        # Every path — engine, batch fan-out, live gateway — takes a
        # plain rule set.
        report = Oracle(toy_detector(), check_extraction=False).run(
            PAYLOADS
        )
        assert report.ok, format_report(report)
        assert report.paths[0] == "serial"
        assert "gateway" in report.paths
        assert "batch-w8" in report.paths
        assert all(
            report.path_wall_s[name] >= 0 for name in report.paths
        )

    def test_counters_account_for_the_run(self):
        payload_counter = get_registry().counter(
            "repro_conformance_payloads_total", ""
        )
        before = payload_counter.value
        Oracle(
            toy_detector(),
            paths=[SerialPath()],
            check_extraction=False,
        ).run(PAYLOADS)
        assert payload_counter.value == before + len(PAYLOADS)

    @pytest.mark.smoke
    def test_trained_detector_full_path_matrix(self, small_signatures):
        # The acceptance bar: the real pSigene detector, every path
        # including the batch fan-out and the TCP gateway, a fuzzed
        # corpus big enough to cross MIN_PARALLEL_BATCH — zero
        # divergences.
        detector = PSigeneDetector(small_signatures)
        corpus = generate_corpus(seed=2012, budget="small")
        report = Oracle(
            detector, extraction_workers=(1, 2)
        ).run(corpus)
        assert report.ok, format_report(report)
        assert "batch-w2" in report.paths
        assert "extraction" in report.paths
        assert report.n_payloads == len(corpus)


class TestOracleCatchesInjectedFaults:
    def test_scoring_perturbation_yields_divergences(self):
        # If this fails, the harness is decorative: an injected +0.25
        # score drift MUST surface as a non-empty divergence report.
        oracle = Oracle(
            toy_detector(),
            paths=[SerialPath(), PerturbedPath()],
            check_extraction=False,
        )
        report = oracle.run(PAYLOADS)
        assert not report.ok
        divergences = report.divergences_for("perturbed")
        assert divergences
        assert all(d.field == "score" for d in divergences)
        # Exactly the alerting payloads drifted.
        alerting = [
            i for i, v in enumerate(
                serial_verdicts(toy_detector(), PAYLOADS)
            ) if v.alert
        ]
        assert [d.index for d in divergences] == alerting
        # And the report renders them for a human.
        assert "perturbed vs serial" in format_report(report)

    def test_divergence_counter_increments(self):
        counter = get_registry().counter(
            "repro_conformance_divergences_total", ""
        )
        before = counter.value
        report = Oracle(
            toy_detector(),
            paths=[SerialPath(), PerturbedPath()],
            check_extraction=False,
        ).run(PAYLOADS)
        assert counter.value == before + len(report.divergences)

    def test_exploding_path_is_an_error_divergence_not_a_crash(self):
        report = Oracle(
            toy_detector(),
            paths=[SerialPath(), ExplodingPath(), PerturbedPath()],
            check_extraction=False,
        ).run(PAYLOADS)
        errors = [d for d in report.divergences if d.field == "error"]
        assert len(errors) == 1
        assert errors[0].path == "exploding"
        assert "always fails" in errors[0].observed
        # The later path still ran and still reported its drift.
        assert report.divergences_for("perturbed")

    def test_baseline_failure_is_fatal(self):
        oracle = Oracle(
            toy_detector(),
            paths=[ExplodingPath(), SerialPath()],
            check_extraction=False,
        )
        with pytest.raises(ConformanceError, match="baseline"):
            oracle.run(PAYLOADS)

    def test_oracle_requires_a_baseline(self):
        with pytest.raises(ValueError, match="at least one path"):
            Oracle(toy_detector(), paths=[])


class TestPathRegistry:
    def test_default_paths_are_serial_first(self):
        paths = default_paths()
        assert paths[0].name == "serial"
        names = [p.name for p in paths]
        assert names.index("serial") < names.index("gateway")
        assert {"batch-w1", "batch-w2", "batch-w8"} <= set(names)

    def test_legacy_serial_path_is_registered(self):
        # The fused-vs-legacy differential must run on every oracle
        # invocation, right after the ground-truth path.
        names = [p.name for p in default_paths()]
        assert names[1] == "serial-legacy"


class TestLegacySerialPath:
    def test_agrees_with_fused_serial(self, small_signatures):
        from repro.conformance import LegacySerialPath

        detector = PSigeneDetector(small_signatures)
        fused = SerialPath().run(detector, PAYLOADS)
        legacy = LegacySerialPath().run(detector, PAYLOADS)
        assert fused == legacy

    def test_runs_with_fused_disabled(self):
        from repro.conformance import LegacySerialPath
        from repro.match import fused_enabled

        class Probe:
            name = "probe"

            def inspect(self, payload):
                states.append(fused_enabled())
                return toy_detector().inspect(payload)

        states: list[bool] = []
        LegacySerialPath().run(Probe(), ["x"])
        assert states == [False]


class TestExtractionParity:
    def test_parallel_matrices_match_serial(self):
        corpus = generate_corpus(seed=2012, budget="small")
        assert extraction_divergences(corpus, worker_counts=(1, 2)) == []

    def test_batch_drift_is_reported_per_cell(self):
        from repro.features import FeatureExtractor

        class DriftingExtractor(FeatureExtractor):
            def extract_many(self, payloads, **kwargs):
                matrix = super().extract_many(payloads, **kwargs)
                matrix.counts[1, 0] += 1
                return matrix

        divergences = extraction_divergences(
            PAYLOADS, worker_counts=(1,), extractor=DriftingExtractor()
        )
        assert [(d.baseline, d.path, d.index) for d in divergences] == [
            ("extract-ref", "extract-w1", 1)
        ]
        assert divergences[0].field.startswith("feature:")
