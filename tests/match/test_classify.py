"""Pattern classification: plans must be conservative, never wrong."""

import re

import pytest

from repro.features.definitions import build_catalog
from repro.match.classify import (
    KIND_DIRECT,
    KIND_FACTORED,
    KIND_LITERAL,
    KIND_WORD,
    classify_pattern,
    literal_of,
    pattern_factors,
    word_literal_of,
)


class TestLiteralOf:
    def test_plain_word(self):
        assert literal_of("union") == "union"

    def test_lowercases(self):
        assert literal_of("UNION") == "union"

    def test_escaped_punctuation(self):
        assert literal_of(r"\|\|") == "||"

    def test_dot_is_not_literal(self):
        assert literal_of("a.b") is None

    def test_charclass_is_not_literal(self):
        assert literal_of(r"\d+") is None

    def test_bad_syntax(self):
        assert literal_of("(oops") is None


class TestWordLiteralOf:
    def test_reserved_word_shape(self):
        assert word_literal_of(r"\bselect\b") == "select"

    def test_requires_both_guards(self):
        assert word_literal_of(r"\bselect") is None
        assert word_literal_of(r"select\b") is None

    def test_inner_regex_rejected(self):
        assert word_literal_of(r"\bsel\d+ect\b") is None


class TestPatternFactors:
    def test_required_literal_run(self):
        # Both runs are required; the longer (more selective) one wins.
        assert pattern_factors(r"union\s+select") == ("select",)

    def test_alternation_unions_branches(self):
        assert set(pattern_factors(r"(exec|execute)\s")) == {
            "exec", "execute",
        }

    def test_optional_part_contributes_nothing(self):
        # `x*` may repeat zero times, so "x" is not required.
        factors = pattern_factors(r"x*y")
        assert "x" not in factors

    def test_unbounded_alternation_degrades(self):
        # Nine+ branches exceed the factor budget.
        pattern = "|".join(f"tok{i}x" for i in range(9))
        assert pattern_factors(pattern) == ()

    def test_anchored_pattern_uses_fallback(self):
        # `$` is outside the NFA subset; the token-level fallback still
        # finds the mandatory comment dashes.
        assert pattern_factors(r"--\s*-?\s*$") == ("--",)


class TestClassifyPattern:
    def test_literal(self):
        plan = classify_pattern(r"\|\|")
        assert plan.kind == KIND_LITERAL
        assert plan.literal == "||"

    def test_word(self):
        plan = classify_pattern(r"\bunion\b")
        assert plan.kind == KIND_WORD
        assert plan.literal == "union"

    def test_factored(self):
        plan = classify_pattern(r"union\s+(all\s+)?select")
        assert plan.kind == KIND_FACTORED
        assert plan.factors

    def test_direct_for_factorless_charset_pattern(self):
        # Charsets with ranges carry no required literal, so nothing
        # can gate the regex: it always runs.
        plan = classify_pattern(r"[0-9][a-f]")
        assert plan.kind == KIND_DIRECT
        assert plan.factors == ()

    def test_direct_for_boundary_regex(self):
        # \b inside a non-word-shape pattern: not a word plan, factors
        # may exist though — craft one with none.
        plan = classify_pattern(r"\b[0-9]\b")
        assert plan.kind == KIND_DIRECT

    @pytest.mark.parametrize(
        "payload",
        [
            "1' union select password from users--",
            "id=1 and 1=1",
            "char(97)||char(98)",
            "benign search terms",
            "",
        ],
    )
    def test_factor_is_necessary_on_catalog(self, payload):
        """Factor absence must prove count zero for every catalog pattern."""
        lowered = payload.lower()
        for definition in build_catalog():
            plan = classify_pattern(definition.pattern)
            if plan.kind != KIND_FACTORED:
                continue
            if any(factor in lowered for factor in plan.factors):
                continue
            count = len(
                re.findall(definition.pattern, payload, re.IGNORECASE)
            )
            assert count == 0, (
                f"{definition.pattern!r} matched {payload!r} despite "
                f"absent factors {plan.factors}"
            )

    def test_catalog_mostly_fused(self):
        """The catalog's dominant shapes must not degrade to direct."""
        plans = [
            classify_pattern(d.pattern) for d in build_catalog()
        ]
        kinds = {k: sum(1 for p in plans if p.kind == k)
                 for k in (KIND_LITERAL, KIND_WORD, KIND_FACTORED,
                           KIND_DIRECT)}
        fused = len(plans) - kinds[KIND_DIRECT]
        assert fused >= 0.9 * len(plans)
