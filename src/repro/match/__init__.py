"""repro.match — fused single-pass feature matching.

The performance tentpole of the reproduction: instead of one compiled
regex traversal per feature per signature, the full catalog is compiled
into one combined plan (token scan + factor gates + merged NFA→DFA) so a
single pass over the normalized payload yields the entire feature count
vector, and per-signature scoring collapses to sparse gathers against
that shared vector.  See :mod:`repro.match.engine` for the construction
and DESIGN.md §14 for the exactness argument.

The fast path is on by default and wired behind the existing APIs
(``FeatureExtractor.extract``, ``SignatureSet.evaluate_normalized``);
``REPRO_FUSED=0`` in the environment, :func:`set_fused_enabled`, or the
:func:`fused_disabled` context manager force the legacy per-feature
reference loop — which is also how the conformance harness proves the
two paths identical.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro._lazy import lazy_exports
from repro.match.automaton import (
    DfaBudgetError,
    MergedAutomaton,
    UnmergeablePatternError,
)
from repro.match.classify import (
    PatternPlan,
    classify_pattern,
    pattern_factors,
)
from repro.match.engine import (
    FusedMatcher,
    FusedSetEvaluator,
    MatchStats,
    matcher_for_patterns,
)
from repro.match.scanner import ScanResult, TokenScanner

__all__ = [
    "DfaBudgetError",
    "FusedMatchBench",
    "FusedMatcher",
    "FusedSetEvaluator",
    "MatchStats",
    "MergedAutomaton",
    "PatternPlan",
    "ScanResult",
    "TokenScanner",
    "UnmergeablePatternError",
    "bench_fused_matching",
    "classify_pattern",
    "fused_disabled",
    "fused_enabled",
    "matcher_for_patterns",
    "pattern_factors",
    "set_fused_enabled",
]

# The benchmark loads on first use.
__getattr__ = lazy_exports(__name__, {
    "bench": ("FusedMatchBench", "bench_fused_matching"),
})

_ENV_FLAG = "REPRO_FUSED"
_enabled = os.environ.get(_ENV_FLAG, "1").strip().lower() not in {
    "0",
    "false",
    "off",
    "no",
}


def fused_enabled() -> bool:
    """True when the fused fast path is active (the default).

    Set ``REPRO_FUSED=0`` before startup to boot with the legacy path.
    """
    return _enabled


def set_fused_enabled(enabled: bool) -> bool:
    """Flip the fused fast path; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def fused_disabled():
    """Force the legacy per-feature path inside the ``with`` block.

    The conformance harness and the benchmark use this to drive the
    reference implementation against the same inputs.
    """
    previous = set_fused_enabled(False)
    try:
        yield
    finally:
        set_fused_enabled(previous)
