"""The fused single-pass matching engine.

``FusedMatcher`` compiles a pattern list once into a three-tier plan
(:mod:`repro.match.classify`) and then produces the *entire* ``count_all``
vector from one scan of the normalized payload:

1. one token scan (:mod:`repro.match.scanner`) counts every literal and
   reserved-word feature exactly;
2. the same scan's occurrence index gates factored regexes — ``finditer``
   runs only when a required literal factor is present;
3. the merged automaton (:mod:`repro.match.automaton`) decides presence
   for factor-less patterns in one pass, again gating ``finditer``.

Counts are exact by construction: every skipped ``finditer`` is skipped
only because a *necessary* condition for any match is absent, and every
taken shortcut (literal/word counting) replays ``finditer``'s
non-overlapping left-to-right discipline.  Non-ASCII payloads — where
``str.lower()`` and ``re.IGNORECASE``'s folding can disagree — route
around the scanner entirely and run the reference loop.

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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.learn.logistic import logit, sigmoid
from repro.match.automaton import (
    DfaBudgetError,
    MergedAutomaton,
    UnmergeablePatternError,
)
from repro.match.classify import (
    KIND_AUTOMATON,
    KIND_DIRECT,
    KIND_FACTORED,
    KIND_LITERAL,
    KIND_WORD,
    classify_pattern,
)
from repro.match.scanner import TokenScanner
from repro.regexlib import compile_pattern
from repro.regexlib.nfa import UnsupportedPatternError
from repro.regexlib.parser import RegexSyntaxError

if TYPE_CHECKING:
    import numpy as np


@dataclass
class MatchStats:
    """Traffic counters for one fused matcher (per process).

    Attributes:
        payloads: :meth:`FusedMatcher.counts` calls.
        ascii_fallbacks: payloads that took the full reference loop
            because they contained non-ASCII characters.
        finditer_calls: exact-count regex runs the gates let through.
        dfa_overflows: times the merged automaton blew its state budget
            (after which its patterns run ``finditer`` unconditionally).
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
        literal_items: list[tuple[int, str]] = []
        word_items: list[tuple[int, str]] = []
        factored_items: list[tuple[int, tuple[str, ...]]] = []
        automaton_ids: list[int] = []
        direct_ids: list[int] = []
        for index, plan in enumerate(self.plans):
            if plan.kind == KIND_LITERAL:
                literal_items.append((index, plan.literal))
            elif plan.kind == KIND_WORD:
                word_items.append((index, plan.literal))
            elif plan.kind == KIND_FACTORED:
                factored_items.append((index, plan.factors))
            elif plan.kind == KIND_AUTOMATON:
                automaton_ids.append(index)
            else:
                direct_ids.append(index)
        automaton = None
        if automaton_ids:
            try:
                automaton = MergedAutomaton(
                    [(i, self.patterns[i]) for i in automaton_ids]
                )
            except (
                UnmergeablePatternError,
                UnsupportedPatternError,
                RegexSyntaxError,
            ):
                # Classification said "automaton" but construction
                # disagreed; degrade those patterns to the direct path.
                direct_ids.extend(automaton_ids)
                automaton_ids = []
        vocabulary = {token for _, token in literal_items}
        vocabulary.update(token for _, token in word_items)
        for _, factors in factored_items:
            vocabulary.update(factors)
        self._scanner = TokenScanner(vocabulary)
        self._literal_items = tuple(literal_items)
        self._word_items = tuple(word_items)
        self._factored_items = tuple(factored_items)
        self._automaton_ids = tuple(automaton_ids)
        self._automaton = automaton
        self._direct_ids = tuple(sorted(direct_ids))
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
        counts = [0] * len(self.patterns)
        scan = self._scanner.scan(normalized.lower())
        for index, token in self._literal_items:
            counts[index] = scan.count(token)
        for index, token in self._word_items:
            counts[index] = scan.count_word(token)
        pending: list[int] = []
        for index, factors in self._factored_items:
            for factor in factors:
                if scan.present(factor):
                    pending.append(index)
                    break
        automaton = self._automaton
        if automaton is not None:
            try:
                pending.extend(automaton.present(normalized))
            except DfaBudgetError:
                stats.dfa_overflows += 1
                self._automaton = None
                pending.extend(self._automaton_ids)
        else:
            pending.extend(self._automaton_ids)
        pending.extend(self._direct_ids)
        stats.finditer_calls += len(pending)
        for index in pending:
            counts[index] = len(compiled[index].findall(normalized))
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
            KIND_AUTOMATON: 0,
            KIND_DIRECT: 0,
        }
        for plan in self.plans:
            kinds[plan.kind] += 1
        automaton = self._automaton
        merged = (
            f"{len(self._automaton_ids)} patterns/"
            f"{automaton.nfa_states} NFA states"
            if automaton is not None
            else "disabled"
        )
        return (
            f"{len(self.patterns)} patterns: "
            f"{kinds[KIND_WORD]} word, {kinds[KIND_LITERAL]} literal, "
            f"{kinds[KIND_FACTORED]} factored, "
            f"{kinds[KIND_AUTOMATON]} automaton, "
            f"{kinds[KIND_DIRECT]} direct | "
            f"scanner vocabulary {len(self._scanner.vocabulary)} | "
            f"merged automaton {merged}"
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
