"""Tests for the ReDoS linter."""

import pytest

from repro.ids.rules import Rule
from repro.regexlib.redos import lint_pattern, lint_ruleset


class TestKnownBadShapes:
    @pytest.mark.parametrize("pattern,expected", [
        (r"(a+)+b", "nested unbounded repetition"),
        (r"(\s*x)*y", "nested unbounded repetition"),
        (r"((ab)*c)*d", "nested unbounded repetition"),
        (r"(a|ab)+c", "overlapping alternation"),
        (r"(x|xy|z)*w", "overlapping alternation"),
        (r"\s*\s*x", "adjacent overlapping"),
        (r"a*a+b", "adjacent overlapping"),
        # findall restarts at every character of a run: each of these
        # costs O(n²) on a run of n class characters.
        (r"([^a-zA-Z&]+)?&|exists", "unanchored class run"),
        (r"([^a-zA-Z&]+)?&", "unanchored class run"),
        (r"[^a-zA-Z&]+=", "unanchored class run"),
        (r"[^&]*=[0-9]+", "unanchored class run"),
        (r"\s+select", "unanchored class run"),
        (r"(?:\d+\s*,\s*){3,}\d+", "unanchored class run"),
        (r"a+b+c", "unanchored class run"),  # a run of one character
    ])
    def test_flagged(self, pattern, expected):
        report = lint_pattern(pattern)
        assert report.analyzable
        assert any(expected in f for f in report.findings), report.findings


class TestKnownGoodShapes:
    @pytest.mark.parametrize("pattern", [
        r"union\s+select",
        r"sleep\s*\(\s*\d+",
        r"(abc|def)+x",          # disjoint branches
        r"^a+b+c",                # adjacent but non-overlapping
        r"\bselect\b",
        r"a{2,4}b",               # bounded repetition never blows up
        r"[a-z]+",                # nothing after the run can fail
        r"\d+\w",                 # the continuation accepts every digit
        r"^[^&]+=",               # anchored: one start, not one per char
    ])
    def test_clean(self, pattern):
        report = lint_pattern(pattern)
        assert report.analyzable
        assert report.safe, report.findings


class TestUnanalyzable:
    @pytest.mark.parametrize("pattern", [
        r"(?=look)x",
        r"(a)\1",
    ])
    def test_reported_not_guessed(self, pattern):
        report = lint_pattern(pattern)
        assert not report.analyzable
        assert report.findings == []
        assert not report.safe

    def test_anchors_stripped_not_blocking(self):
        report = lint_pattern(r"^union\s+select$")
        assert report.analyzable
        assert report.safe


class TestRulesetLinting:
    def test_only_enabled_rules_checked(self):
        rules = [
            Rule(1, "on", r"(a+)+b"),
            Rule(2, "off", r"(b+)+c", enabled=False),
        ]
        reports = lint_ruleset(rules)
        assert set(reports) == {"1"}

    def test_reproduced_rulesets_have_no_exponential_patterns(self):
        """Star-height-2 (the truly exponential shape) must not appear in
        any enabled rule we ship, except where a bounded context makes it
        benign; adjacent-overlap warnings (polynomial) are tolerated."""
        from repro.ids.rulesets import (
            build_bro_ruleset,
            build_modsec_ruleset,
            build_snort_ruleset,
        )

        for ruleset in (
            build_bro_ruleset(), build_snort_ruleset(),
            build_modsec_ruleset(),
        ):
            reports = lint_ruleset(ruleset.rules)
            exponential = {
                sid: r.findings
                for sid, r in reports.items()
                if any("nested unbounded" in f for f in r.findings)
                and sid != "981250"  # (?:,\s*\d+\s*)+ — bounded by digits
            }
            assert not exponential, (ruleset.name, exponential)

    def test_psigene_signature_features_lintable(self, small_signatures):
        """Most deployed pSigene feature patterns analyze clean."""
        patterns = {
            d.pattern
            for signature in small_signatures
            for d in signature.features
        }
        analyzable = [lint_pattern(p) for p in patterns]
        clean = sum(1 for r in analyzable if r.safe)
        assert clean >= len(analyzable) * 0.5
