"""Framed load generation: full requests over wire v2 with parity.

Framed ``run_loadgen`` must reproduce the offline surface scorer's
verdicts bit-for-bit — including on traffic only non-legacy surfaces
can see.
"""

import asyncio

from repro.corpus import SurfaceCorpusGenerator
from repro.http import HttpRequest
from repro.ids import DeterministicRuleSet, Rule
from repro.serve import GatewayConfig
from repro.serve.loadgen import run_loadgen
from repro.surfaces import DEFAULT_SURFACES, LEGACY_SURFACES


def toy_detector():
    return DeterministicRuleSet("toy", [
        Rule(1, "union", r"union\s+select"),
        Rule(2, "quote-or", r"'\s*or\s"),
    ])


class TestFramedLoadgen:
    def test_legacy_selection_parity_on_query_traffic(self):
        requests = [
            HttpRequest(query="id=1' or 1=1"),
            HttpRequest(query="q=hello"),
            HttpRequest(query="u=1 union select 2"),
        ] * 10
        report = asyncio.run(run_loadgen(
            toy_detector(),
            requests,
            config=GatewayConfig(),
            surfaces=LEGACY_SURFACES,
            connections=2,
            window=8,
        ))
        assert report.completed == len(requests)
        assert report.shed == 0 and report.errors == 0
        assert report.parity_ok

    def test_full_surface_parity_on_surface_corpus(self):
        trace = SurfaceCorpusGenerator(seed=11).mixed_trace(48)
        report = asyncio.run(run_loadgen(
            toy_detector(),
            trace.requests,
            config=GatewayConfig(),
            surfaces=DEFAULT_SURFACES,
            connections=4,
            window=16,
        ))
        assert report.completed == 48
        assert report.parity_ok
        # The corpus's attack half must actually fire on some surface.
        assert report.alerts > 0
