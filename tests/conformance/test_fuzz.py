"""The seeded fuzz corpus: deterministic, adversarial, wire-safe."""

import pytest

from repro.conformance import BUDGETS, generate_corpus
from repro.conformance.fuzz import _STATIC_EDGES
from repro.parallel import MIN_PARALLEL_BATCH


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        assert generate_corpus(seed=7) == generate_corpus(seed=7)

    def test_different_seed_differs(self):
        assert generate_corpus(seed=7) != generate_corpus(seed=8)

    def test_payloads_are_unique(self):
        corpus = generate_corpus(seed=2012)
        assert len(corpus) == len(set(corpus))


class TestBudgets:
    def test_known_budgets(self):
        assert set(BUDGETS) == {"small", "medium", "large"}

    def test_unknown_budget_raises(self):
        with pytest.raises(ValueError, match="unknown budget"):
            generate_corpus(budget="gigantic")

    def test_budgets_scale(self):
        small = generate_corpus(seed=2012, budget="small")
        medium = generate_corpus(seed=2012, budget="medium")
        assert len(medium) > len(small)

    def test_small_budget_exceeds_parallel_threshold(self):
        # Batches below MIN_PARALLEL_BATCH short-circuit to the serial
        # loop; a corpus under the threshold would never exercise the
        # real multiprocess fan-out the oracle exists to check.
        assert len(generate_corpus(budget="small")) > MIN_PARALLEL_BATCH


class TestAdversarialContent:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(seed=2012, budget="small")

    def test_wire_safe(self, corpus):
        # The line protocol frames on newlines: raw CR/LF in a payload
        # would make the gateway see a different request count than the
        # offline paths and invalidate every comparison.
        for payload in corpus:
            assert "\n" not in payload and "\r" not in payload

    def test_static_edges_included(self, corpus):
        for edge in _STATIC_EDGES:
            assert edge in corpus

    def test_empty_payload_included(self, corpus):
        assert "" in corpus

    def test_unicode_evasions_included(self, corpus):
        assert any(
            any(ord(ch) > 127 for ch in payload) for payload in corpus
        )

    def test_plus_and_percent_edges_included(self, corpus):
        assert "q=a+b" in corpus
        assert "discount=100%" in corpus

    def test_long_tail_payload_included(self, corpus):
        assert any(len(payload) > 2000 for payload in corpus)

    def test_attacks_and_benign_both_present(self, corpus):
        # The corpus must straddle the decision boundary: a corpus the
        # detector answers uniformly would hide alert-flag divergences.
        assert any("union" in p.lower() for p in corpus)
        assert "search=union+square+hotels" in corpus
