"""The fused matching engine.

``FusedMatcher`` classifies a pattern list once
(:mod:`repro.match.classify`) and then produces the *entire*
``count_all`` vector from the payload case-folded once:

- a ``literal`` plan is ``str.count`` of its literal on the folded text;
- a ``word`` or ``factored`` plan runs ``len(findall(normalized))`` only
  when its word, or one of its factors, is ``in`` the folded text;
- a ``direct`` plan always runs ``findall``.

Counts are exact by construction.  Every nonzero count comes either from
``findall`` itself or from ``str.count`` of a literal, which takes
occurrences left to right without overlap exactly as ``finditer`` does
on ASCII text; and a ``findall`` is skipped only when a literal that
every match must contain is absent.  Non-ASCII payloads — where
``str.lower()`` and ``re.IGNORECASE``'s folding can disagree — skip the
gates and run every pattern's ``findall``.

``FusedSetEvaluator`` layers pSigene scoring on top: the union of all
signatures' features is matched once, and each signature reads its
features out of the shared vector and scores them with the same
:func:`repro.learn.logistic.logit` as ``GeneralizedSignature.probability``,
so probabilities are bit-identical to the per-signature path.

:meth:`FusedMatcher.counts` is the one counting implementation and
returns Python ints, so scoring runs without numpy;
:meth:`FusedMatcher.count_vector` wraps it for callers that want an
``int64`` array.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.learn.logistic import logit, sigmoid
from repro.match.classify import (
    KIND_DIRECT,
    KIND_FACTORED,
    KIND_LITERAL,
    KIND_WORD,
    classify_pattern,
)
from repro.regexlib import compile_pattern

if TYPE_CHECKING:
    import numpy as np


@dataclass
class MatchStats:
    """Traffic counters for one fused matcher (per process).

    Attributes:
        payloads: :meth:`FusedMatcher.counts` calls.
        ascii_fallbacks: payloads that ran every pattern's ``findall``
            because they contained non-ASCII characters.
        finditer_calls: ``findall`` runs: every ``word``, ``factored``
            or ``direct`` plan whose gate opened (a ``direct`` plan's
            always does), and every pattern of a non-ASCII payload.
        dfa_overflows: always 0.  The engine has no automaton and so no
            state budget to overflow; the field stays because per-layer
            benchmark records read it.
    """

    payloads: int = 0
    ascii_fallbacks: int = 0
    finditer_calls: int = 0
    dfa_overflows: int = 0


class FusedMatcher:
    """One-pass ``count_all`` vectors for a fixed pattern list.

    Attributes:
        patterns: the pattern list, index-aligned with every output
            vector.
        plans: per-pattern :class:`~repro.match.classify.PatternPlan`.
        stats: :class:`MatchStats` traffic counters.
    """

    def __init__(self, patterns: Sequence[str]) -> None:
        self.patterns = tuple(patterns)
        self._compiled = [compile_pattern(p) for p in self.patterns]
        self.plans = tuple(classify_pattern(p) for p in self.patterns)
        # A literal plan is counted with str.count.  Every other plan runs
        # findall once one of its gates is in the folded text; a direct
        # plan's only gate is "", which is in every text.
        literals: list[tuple[int, str]] = []
        gated: list[tuple[int, tuple[str, ...], Callable]] = []
        for index, plan in enumerate(self.plans):
            if plan.kind == KIND_LITERAL:
                literals.append((index, plan.literal))
                continue
            if plan.kind == KIND_WORD:
                gates = (plan.literal,)
            elif plan.kind == KIND_FACTORED:
                gates = plan.factors
            else:
                gates = ("",)
            gated.append((index, gates, self._compiled[index].findall))
        self._literals = tuple(literals)
        self._gated = tuple(gated)
        self.stats = MatchStats()

    def counts(self, normalized: str) -> list[int]:
        """Exact ``count_all`` values, index-aligned with ``patterns``."""
        stats = self.stats
        stats.payloads += 1
        if not normalized:
            # Catalog patterns never match the empty string (validate()
            # rejects them), so the zero vector is already exact.
            return [0] * len(self.patterns)
        compiled = self._compiled
        if not normalized.isascii():
            # len(findall()) equals the finditer match count (groups only
            # change findall's element type, never its length) and runs
            # the whole non-overlapping search inside the C loop.
            stats.ascii_fallbacks += 1
            stats.finditer_calls += len(compiled)
            return [len(regex.findall(normalized)) for regex in compiled]
        lowered = normalized.lower()
        counts = [0] * len(self.patterns)
        for index, literal in self._literals:
            counts[index] = lowered.count(literal)
        calls = 0
        for index, gates, findall in self._gated:
            for gate in gates:
                if gate in lowered:
                    calls += 1
                    counts[index] = len(findall(normalized))
                    break
        stats.finditer_calls += calls
        return counts

    def count_vector(self, normalized: str) -> np.ndarray:
        """:meth:`counts` as an ``int64`` array."""
        import numpy as np

        return np.asarray(self.counts(normalized), dtype=np.int64)

    def describe(self) -> str:
        """One-line census of the compiled plan (``repro match explain``)."""
        kinds = {
            KIND_LITERAL: 0,
            KIND_WORD: 0,
            KIND_FACTORED: 0,
            KIND_DIRECT: 0,
        }
        for plan in self.plans:
            kinds[plan.kind] += 1
        return (
            f"{len(self.patterns)} patterns: "
            f"{kinds[KIND_WORD]} word, {kinds[KIND_LITERAL]} literal, "
            f"{kinds[KIND_FACTORED]} factored, "
            f"{kinds[KIND_DIRECT]} direct"
        )

    def __reduce__(self):
        """Pickle as a factory call so worker processes share the memo."""
        return (matcher_for_patterns, (self.patterns,))


@lru_cache(maxsize=64)
def matcher_for_patterns(patterns: tuple[str, ...]) -> FusedMatcher:
    """Process-wide :class:`FusedMatcher` memo.

    Signature subsets, threshold sweeps, and unpickled workers all reuse
    the same compiled plan for the same pattern tuple; ``stats`` are
    therefore per-process aggregates across every holder.
    """
    return FusedMatcher(patterns)


class FusedSetEvaluator:
    """Scores every signature of a set from one shared count vector.

    The union of the signatures' feature patterns is matched once; each
    signature then reads its own features out of the shared vector by
    index and scores them with :func:`repro.learn.logistic.logit`, the
    arithmetic ``GeneralizedSignature.probability`` uses on its own
    feature vector.  Same terms, same order, same function: the two
    paths agree bit for bit by construction.

    Attributes:
        matcher: the :class:`FusedMatcher` over the union of the
            signatures' feature patterns, in first-seen order.
    """

    def __init__(self, signatures: Sequence) -> None:
        index_of: dict[str, int] = {}
        for signature in signatures:
            for definition in signature.features:
                index_of.setdefault(definition.pattern, len(index_of))
        self.matcher = matcher_for_patterns(tuple(index_of))
        # One (intercept, ((shared index, weight), ...)) per signature.
        self._terms = tuple(
            (
                signature.model.intercept,
                tuple(zip(
                    [index_of[d.pattern] for d in signature.features],
                    signature.model.coefficients,
                )),
            )
            for signature in signatures
        )

    def probabilities(self, normalized: str) -> list[float]:
        """Per-signature probabilities, in signature order."""
        counts = self.matcher.counts(normalized)
        return [
            sigmoid(logit(intercept, terms, counts))
            for intercept, terms in self._terms
        ]
