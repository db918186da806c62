"""Differential conformance: one oracle for every detector path.

The subsystem behind ``repro conform``: a :class:`~.oracle.Oracle` that
drives a payload set through every registered verdict path and diffs
the answers, a seeded grammar fuzzer that builds adversarial corpora,
and golden-corpus snapshots that pin verdicts across PRs.  See
DESIGN.md §13 for the architecture.

Every name loads on first use: the serving supervisor imports the
verdict referee (:mod:`repro.conformance.verdict`) for its shard
spot-check and must not load the fuzzer's corpus generators or the
training harness with it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BUDGETS",
    "BatchPath",
    "ConformanceError",
    "ConformanceReport",
    "DetectorPath",
    "Divergence",
    "EngineRunPath",
    "FuzzBudget",
    "GatewayFramedPath",
    "GatewayPath",
    "GoldenCorpus",
    "GoldenError",
    "LegacySerialPath",
    "Oracle",
    "SerialPath",
    "ShardedGatewayPath",
    "SurfacesLegacyParityPath",
    "Verdict",
    "default_paths",
    "default_training_config",
    "diff_golden",
    "diff_verdicts",
    "extraction_divergences",
    "format_report",
    "generate_corpus",
    "read_golden",
    "serial_verdicts",
    "train_default_detector",
    "write_golden",
]

__getattr__ = lazy_exports(__name__, {
    "fuzz": ("BUDGETS", "FuzzBudget", "generate_corpus"),
    "golden": (
        "GoldenCorpus", "GoldenError", "diff_golden", "read_golden",
        "write_golden",
    ),
    "harness": ("default_training_config", "train_default_detector"),
    "oracle": ("Oracle", "extraction_divergences", "format_report"),
    "paths": (
        "BatchPath", "DetectorPath", "EngineRunPath", "GatewayFramedPath",
        "GatewayPath", "LegacySerialPath", "SerialPath",
        "ShardedGatewayPath", "SurfacesLegacyParityPath", "default_paths",
    ),
    "verdict": (
        "ConformanceError", "ConformanceReport", "Divergence", "Verdict",
        "diff_verdicts", "serial_verdicts",
    ),
})
