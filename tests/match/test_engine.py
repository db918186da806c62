"""Fused engine: count vectors and probabilities are exact, not close."""

import pickle
import random
import re
import string

import numpy as np
import pytest

from repro.features.definitions import build_catalog
from repro.match import (
    FusedMatcher,
    FusedSetEvaluator,
    matcher_for_patterns,
)
from repro.match.classify import KIND_FACTORED, KIND_LITERAL, KIND_WORD
from repro.regexlib import count_all


def reference_vector(patterns, payload):
    return [count_all(p, payload) for p in patterns]


CRAFTED = [
    "",
    "1' union select password from users--",
    "1' UNION ALL SELECT NULL,NULL,version()--",
    "id=1 and 1=1",
    "char(97)||char(98)||char(99)",
    "/**/union/**/select/**/",
    "'; exec xp_cmdshell('dir')--",
    "benign search terms with select inside selection",
    "0x414243 0x or or",
    "a" * 200,
    "'' '' '' ''",
    "%27%20union%20select",
    "union",  # bare token, boundary on both string edges
    "-- -",
    "ünïon sélect",  # non-ASCII: must take the reference loop
    "union select",  # non-ASCII whitespace
]

# Tokens and texts where str.count and the word gate must replay
# finditer's left-to-right, non-overlapping discipline: "aa" twice in
# "aaaa", "or" rejected inside "oror" without consuming it, "--" whose
# non-word edges flip the sense of \b, "un" shadowed by "union".
EDGE_TOKENS = ["aa", "'", "or", "--", "select", "1=1", "union", "un", "ab"]
EDGE_TEXTS = [
    "aaaa", "a'b''c", "or for order or", "oror ", "a--b", "--",
    "a -- b", "----", "1' or '1'='1", "select * from t -- comment",
    "ORDER BY 1--", "union all select null,null", "x" * 50, "",
    "or or or", "1=1=1=1", "---- --", "union", "abab xab",
]


class TestFusedMatcherExactness:
    def test_crafted_payloads_match_reference(self):
        patterns = [d.pattern for d in build_catalog()]
        matcher = FusedMatcher(patterns)
        for payload in CRAFTED:
            fused = matcher.count_vector(payload).tolist()
            assert fused == reference_vector(patterns, payload), payload

    def test_random_payloads_match_reference(self):
        patterns = [d.pattern for d in build_catalog()]
        matcher = FusedMatcher(patterns)
        rng = random.Random(1405)
        alphabet = (
            string.ascii_letters + string.digits
            + "'\"()=<>;,.-_%&|/* +"
        )
        for _ in range(60):
            payload = "".join(
                rng.choice(alphabet)
                for _ in range(rng.randrange(0, 120))
            )
            fused = matcher.count_vector(payload).tolist()
            assert fused == reference_vector(patterns, payload), payload

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_literal_and_word_edges_match_reference(self, text):
        patterns = []
        for token in EDGE_TOKENS:
            escaped = re.escape(token)
            patterns += [escaped, rf"\b{escaped}\b"]
        matcher = FusedMatcher(patterns)
        kinds = {plan.kind for plan in matcher.plans}
        assert kinds == {KIND_LITERAL, KIND_WORD}
        assert matcher.counts(text) == reference_vector(patterns, text)

    def test_token_soup_matches_reference(self):
        """Payloads built from the catalog's own tokens open every gate."""
        patterns = [d.pattern for d in build_catalog()]
        matcher = FusedMatcher(patterns)
        gated = [
            (plan.literal,) if plan.kind == KIND_WORD else plan.factors
            for plan in matcher.plans
            if plan.kind in (KIND_WORD, KIND_FACTORED)
        ]
        tokens = sorted(
            {plan.literal for plan in matcher.plans if plan.literal}
            | {factor for plan in matcher.plans for factor in plan.factors}
        )
        rng = random.Random(2405)
        rng.shuffle(tokens)
        glue = ["", " ", "'", "(", ")", ",", "=", "--", "/**/", ";", "%20"]
        payloads = []
        while tokens:
            size = rng.randrange(1, 9)
            chunk, tokens = tokens[:size], tokens[size:]
            payloads.append("".join(
                "".join(c.upper() if rng.random() < 0.5 else c for c in token)
                + rng.choice(glue)
                for token in chunk
            ))
        folded = [payload.lower() for payload in payloads]
        assert all(
            any(gate in text for text in folded for gate in gates)
            for gates in gated
        )
        for payload in payloads:
            assert matcher.counts(payload) == reference_vector(
                patterns, payload
            ), payload

    def test_non_ascii_counts_fallbacks(self):
        matcher = FusedMatcher(["union"])
        before = matcher.stats.ascii_fallbacks
        assert matcher.count_vector("üunion").tolist() == [1]
        assert matcher.stats.ascii_fallbacks == before + 1

    def test_empty_payload_is_zero_vector(self):
        matcher = FusedMatcher(["union", r"\bselect\b"])
        assert matcher.count_vector("").tolist() == [0, 0]

    def test_stats_count_payloads(self):
        matcher = FusedMatcher(["union"])
        seen = matcher.stats.payloads
        matcher.count_vector("x")
        assert matcher.stats.payloads == seen + 1

    def test_count_vector_is_counts_as_an_int64_array(self):
        matcher = FusedMatcher(["union", r"\bselect\b"])
        counts = matcher.counts("union select union")
        assert counts == [2, 1]
        assert all(type(count) is int for count in counts)
        vector = matcher.count_vector("union select union")
        assert vector.dtype == np.int64
        assert vector[np.array([True, False])].tolist() == [2]

    def test_pickle_roundtrip_shares_memo(self):
        matcher = matcher_for_patterns(("union", r"\bselect\b"))
        clone = pickle.loads(pickle.dumps(matcher))
        assert clone is matcher  # same process: memo returns the object

    def test_memo_reuses_plans(self):
        first = matcher_for_patterns(("pickme", "andme"))
        second = matcher_for_patterns(("pickme", "andme"))
        assert first is second


class TestFusedSetEvaluator:
    def test_probabilities_bit_identical(self, small_signatures):
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        for payload in CRAFTED:
            normalized = small_signatures.normalizer(payload)
            fused = evaluator.probabilities(normalized)
            legacy = [
                signature.probability(normalized)
                for signature in small_signatures.signatures
            ]
            assert fused == legacy, payload  # ==, not approx

    def test_evaluate_normalized_routes_through_fused(
        self, small_signatures
    ):
        assert small_signatures.warm()
        reference = small_signatures.reference()
        for payload in CRAFTED:
            normalized = small_signatures.normalizer(payload)
            fused = small_signatures.evaluate_normalized(normalized)
            legacy = reference.evaluate_normalized(normalized)
            assert fused == legacy, payload

    def test_probabilities_array_matches_legacy(self, small_signatures):
        normalized = small_signatures.normalizer(
            "1' union select 1,2--"
        )
        fused = small_signatures.probabilities(normalized)
        legacy = small_signatures.reference().probabilities(normalized)
        assert np.array_equal(fused, legacy)

    def test_signature_set_pickles_without_fused_state(
        self, small_signatures
    ):
        small_signatures.warm()
        clone = pickle.loads(pickle.dumps(small_signatures))
        payload = clone.normalizer("1' or '1'='1")
        assert clone.evaluate_normalized(payload) == (
            small_signatures.evaluate_normalized(payload)
        )

    def test_with_threshold_shares_compiled_plan(self, small_signatures):
        small_signatures.warm()
        swept = small_signatures.with_threshold(0.9)
        assert swept._fused is small_signatures._fused
        # A fresh evaluator (how e2ebench finds the serving matcher)
        # draws the set's own memoized matcher.
        fresh = FusedSetEvaluator(small_signatures.signatures)
        assert fresh.matcher is small_signatures._fused.matcher
