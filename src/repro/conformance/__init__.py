"""Differential conformance: one oracle for every detector path.

The subsystem behind ``repro conform``: a :class:`~.oracle.Oracle` that
drives a payload set through every registered verdict path and diffs
the answers, a seeded grammar fuzzer that builds adversarial corpora,
and golden-corpus snapshots that pin verdicts across PRs.  See
DESIGN.md §13 for the architecture.
"""

from repro.conformance.fuzz import BUDGETS, FuzzBudget, generate_corpus
from repro.conformance.golden import (
    GoldenCorpus,
    GoldenError,
    diff_golden,
    read_golden,
    write_golden,
)
from repro.conformance.harness import (
    default_training_config,
    train_default_detector,
)
from repro.conformance.oracle import (
    Oracle,
    extraction_divergences,
    format_report,
    serial_verdicts,
)
from repro.conformance.paths import (
    BatchPath,
    DetectorPath,
    EngineRunPath,
    GatewayFramedPath,
    GatewayPath,
    LegacySerialPath,
    SerialPath,
    ShardedGatewayPath,
    SurfacesLegacyParityPath,
    default_paths,
)
from repro.conformance.verdict import (
    ConformanceError,
    ConformanceReport,
    Divergence,
    Verdict,
    diff_verdicts,
)

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
