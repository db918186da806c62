"""repro.match — fused feature matching.

Instead of one compiled regex traversal per feature per signature, the
union of a set's features is classified once, and one loop over the
case-folded payload yields the entire feature count vector: literals are
counted with ``str.count``, and a regex runs only when a literal every
match must contain is ``in`` the text.  Per-signature scoring collapses
to index reads against that shared vector.  See :mod:`repro.match.engine`
for the loop and DESIGN.md §14 for the exactness argument.

The fused path is wired behind the existing APIs
(``FeatureExtractor.extract``, ``SignatureSet.evaluate_normalized``) and
always runs unless its compiler rejects a pattern set.  The per-feature
reference loop stays reachable by object, not by a switch:
``SignatureSet.reference()`` pins a set to it, which is how the
conformance harness proves the two paths identical.
"""

from __future__ import annotations

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

__all__ = [
    "FusedMatcher",
    "FusedSetEvaluator",
    "MatchStats",
    "PatternPlan",
    "classify_pattern",
    "matcher_for_patterns",
    "pattern_factors",
]
