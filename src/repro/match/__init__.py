"""repro.match — fused single-pass feature matching.

The performance tentpole of the reproduction: instead of one compiled
regex traversal per feature per signature, the full catalog is compiled
into one combined plan (token scan + factor gates + merged NFA→DFA) so a
single pass over the normalized payload yields the entire feature count
vector, and per-signature scoring collapses to index reads against that
shared vector.  See :mod:`repro.match.engine` for the construction and
DESIGN.md §14 for the exactness argument.

The fused path is wired behind the existing APIs
(``FeatureExtractor.extract``, ``SignatureSet.evaluate_normalized``) and
always runs unless its compiler rejects a pattern set.  The per-feature
reference loop stays reachable by object, not by a switch:
``SignatureSet.reference()`` pins a set to it, which is how the
conformance harness proves the two paths identical.
"""

from __future__ import annotations

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
    "matcher_for_patterns",
    "pattern_factors",
]

# The benchmark loads on first use.
__getattr__ = lazy_exports(__name__, {
    "bench": ("FusedMatchBench", "bench_fused_matching"),
})
