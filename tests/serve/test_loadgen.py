"""The one load driver and its parity referee.

``run_loadgen`` must come back with every response, in order, and with
offline parity on each framing (line protocol or ``REPRO-FRAME/2``) and
each pacing (closed loop, or open loop at a fixed rate).  The open loop
times a request from its scheduled send, so a stall in the generator is
charged as latency.  The referee fails a replay whose responses are
missing or errors, not only one whose verdicts disagree.
"""

import asyncio
import time

import pytest

from repro.eval.serving import offline_detections, parity_of_responses
from repro.http import HttpRequest
from repro.ids import DeterministicRuleSet, Rule
from repro.serve import DetectionGateway, GatewayConfig, SignatureStore
from repro.serve.loadgen import replay, run_loadgen
from repro.serve.protocol import encode_line
from repro.surfaces import LEGACY_SURFACES


def toy_detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


# Every seventh payload alerts: a response shifted by one position on
# its connection (3 connections deal every third payload to the same
# one) lands on a payload with the other verdict.
PAYLOADS = [
    f"id={i} union select 1" if i % 7 == 0 else f"q={i}"
    for i in range(60)
]


def as_response(detection):
    return {
        "alert": detection.alert,
        "score": detection.score,
        "matched": list(detection.matched_sids),
    }


class TestEncodeLine:
    def test_appends_the_newline(self):
        assert encode_line("q=a b") == b"q=a b\n"

    @pytest.mark.parametrize("payload", ["q=a\nb", "q=a\rb", "q=a\r\n"])
    def test_line_break_raises(self, payload):
        with pytest.raises(ValueError, match="line break"):
            encode_line(payload)


class TestParityReferee:
    def test_missing_responses_fail(self):
        offline = offline_detections(toy_detector(), PAYLOADS[:3])
        report = parity_of_responses(offline, [None, None, None])
        assert report.missing == 3
        assert not report.ok
        assert report.summary().startswith("MISMATCH")

    def test_error_responses_fail_and_are_counted(self):
        offline = offline_detections(toy_detector(), PAYLOADS[:3])
        report = parity_of_responses(offline, [
            {"shed": True, "error": "queue full"},
            {"error": "boom"},
            as_response(offline[2]),
        ])
        assert (report.shed, report.errors, report.total) == (1, 1, 1)
        assert not report.ok
        assert "1 errors" in report.summary()


class TestReplay:
    @pytest.mark.parametrize("rate", [None, 2000.0], ids=["closed", "open"])
    @pytest.mark.parametrize("framed", [False, True], ids=["line", "framed"])
    def test_round_trip(self, framed, rate):
        """Counts and per-index parity (hence response order) hold on
        every framing and pacing."""
        items = (
            [HttpRequest(query=p) for p in PAYLOADS] if framed else PAYLOADS
        )
        report = asyncio.run(run_loadgen(
            toy_detector(),
            items,
            config=GatewayConfig(),
            surfaces=LEGACY_SURFACES if framed else None,
            connections=3,
            window=4,
            rate=rate,
        ))
        assert report.requests == report.completed == len(PAYLOADS)
        assert report.shed == report.errors == 0
        assert report.alerts == 9
        assert report.offered_rps == rate
        assert report.parity.ok and report.parity.total == len(PAYLOADS)

    def test_open_loop_counts_latency_from_the_scheduled_send(self):
        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()), GatewayConfig()
            )
            host, port = await gateway.start()
            try:
                replaying = asyncio.get_running_loop().create_task(replay(
                    host, port, [encode_line(p) for p in PAYLOADS],
                    connections=2, rate=1000.0,
                ))
                await asyncio.sleep(0)  # the replay starts its clock...
                time.sleep(0.2)  # ...then the generator stalls 200 ms
                return await replaying
            finally:
                await gateway.stop()

        responses, latencies, _duration = asyncio.run(scenario())
        assert all(response is not None for response in responses)
        assert latencies[0] >= 0.2
