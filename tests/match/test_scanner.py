"""Token scanning: literal and ``\\b…\\b`` counts must replay ``re.finditer``.

``FusedMatcher`` counts a ``literal`` plan with ``str.count`` on the
folded text and runs a ``word`` plan's ``findall`` only when its word is
``in`` that text.  These cases pin both to ``finditer``'s left-to-right,
non-overlapping discipline on the tokens where it is easiest to break.
"""

import re

import pytest

from repro.match import FusedMatcher
from repro.match.classify import KIND_LITERAL, KIND_WORD


def reference_count(token: str, text: str) -> int:
    return sum(
        1 for _ in re.finditer(re.escape(token), text, re.IGNORECASE)
    )


def reference_word_count(token: str, text: str) -> int:
    return sum(1 for _ in re.finditer(
        rf"\b{re.escape(token)}\b", text, re.IGNORECASE
    ))


def token_matcher(token: str) -> FusedMatcher:
    """*token* as a literal plan and as a ``\\b…\\b`` word plan."""
    escaped = re.escape(token)
    matcher = FusedMatcher([escaped, rf"\b{escaped}\b"])
    assert [plan.kind for plan in matcher.plans] == [KIND_LITERAL, KIND_WORD]
    return matcher


class TestTokenScanner:
    def test_positions_are_all_occurrences(self):
        # "ab" starts at 0, 2 and 6; the literal count takes every one.
        text = "abab xab"
        assert [m.start() for m in re.finditer("ab", text)] == [0, 2, 6]
        assert token_matcher("ab").counts(text)[0] == 3

    def test_count_word_rejected_position_does_not_advance(self):
        # In "oror" the occurrence at 0 fails the trailing boundary; the
        # one at 2 must still be eligible (finditer never consumed 0).
        text = "oror "
        assert token_matcher("or").counts(text)[1] == (
            reference_word_count("or", text)
        )

    @pytest.mark.parametrize("token", ["select", "'", "1=1", "--", "or"])
    def test_counts_match_reference_on_corpus(self, token):
        matcher = token_matcher(token)
        payloads = [
            "1' or '1'='1", "select * from t -- comment",
            "ORDER BY 1--", "union all select null,null",
            "x" * 50, "", "or or or", "1=1=1=1", "---- --",
        ]
        for payload in payloads:
            assert matcher.counts(payload) == [
                reference_count(token, payload),
                reference_word_count(token, payload),
            ], (token, payload)
