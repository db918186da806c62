"""The one load driver and its parity check.

``run_loadgen`` must come back with every response, in order, and with
offline parity on each framing (line protocol or ``REPRO-FRAME/2``) and
each pacing (closed loop, or open loop at a fixed rate).  The open loop
times a request from its scheduled send, so a stall in the generator is
charged as latency.  Parity fails a replay whose answers are missing or
errors, not only one whose verdicts disagree; sheds are counted and
never fail it.
"""

import asyncio
import time

import pytest

from repro.__main__ import main
from repro.http import HttpRequest
from repro.ids import DeterministicRuleSet, Rule
from repro.serve import DetectionGateway, GatewayConfig, SignatureStore
from repro.serve import loadgen
from repro.serve.loadgen import format_report, replay, run_loadgen
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


def shed(responses, index):
    responses[index] = {"shed": True, "error": "queue full"}


def error(responses, index):
    responses[index] = {"error": "boom"}


def lose(responses, index):
    responses[index] = None


def flip(responses, index):
    responses[index]["alert"] = not responses[index]["alert"]


def tamper(monkeypatch, *faults):
    """Make ``run_loadgen``'s replay apply ``(fault, index)`` pairs to
    the served answers before the parity check reads them."""
    served = replay

    async def tampered(host, port, wires, **pacing):
        responses, latencies, duration = await served(
            host, port, wires, **pacing
        )
        for fault, index in faults:
            fault(responses, index)
        return responses, latencies, duration

    monkeypatch.setattr(loadgen, "replay", tampered)


def tampered_run(monkeypatch, *faults):
    """``run_loadgen`` over ``PAYLOADS`` with ``faults`` tampered in."""
    tamper(monkeypatch, *faults)
    return asyncio.run(run_loadgen(
        toy_detector(), PAYLOADS, config=GatewayConfig()
    ))


def parity_line(report):
    return format_report(report).splitlines()[-1].strip()


class TestEncodeLine:
    def test_appends_the_newline(self):
        assert encode_line("q=a b") == b"q=a b\n"

    @pytest.mark.parametrize("payload", ["q=a\nb", "q=a\rb", "q=a\r\n"])
    def test_line_break_raises(self, payload):
        with pytest.raises(ValueError, match="line break"):
            encode_line(payload)


class TestParityReferee:
    def test_missing_responses_fail(self, monkeypatch):
        report = tampered_run(monkeypatch, (lose, 3), (lose, 10))
        assert report.missing == 2 and report.divergences == []
        assert not report.parity_ok
        assert parity_line(report) == (
            "MISMATCH: 58 compared, 0 shed, 0 errors, 2 missing, "
            "0 mismatched"
        )

    def test_error_responses_fail_and_are_counted(self, monkeypatch):
        report = tampered_run(monkeypatch, (shed, 0), (error, 1))
        assert (report.shed, report.errors, report.completed) == (1, 1, 58)
        assert report.divergences == []
        assert not report.parity_ok
        assert "1 errors" in parity_line(report)

    def test_sheds_alone_keep_parity(self, monkeypatch):
        report = tampered_run(monkeypatch, (shed, 0), (shed, 7))
        assert report.shed == 2 and report.parity_ok
        assert parity_line(report).startswith("PARITY: 58 compared, 2 shed")

    def test_a_wrong_verdict_is_reported_at_its_trace_index(
        self, monkeypatch
    ):
        # Two sheds ahead of it shift its position among the answered.
        report = tampered_run(monkeypatch, (shed, 0), (shed, 1), (flip, 14))
        assert [(d.index, d.field) for d in report.divergences] == [
            (14, "alert")
        ]
        assert report.divergences[0].payload == PAYLOADS[14]
        assert not report.parity_ok
        assert parity_line(report).endswith("1 mismatched")

    @pytest.mark.parametrize("faults,code", [
        ([(shed, 0), (shed, 5)], 0),
        ([(error, 5)], 4),
        ([(lose, 5)], 4),
        ([(flip, 0)], 4),
    ], ids=["shed", "error", "missing", "diverging"])
    def test_cli_exits_4_on_anything_but_a_shed(
        self, monkeypatch, capsys, faults, code
    ):
        tamper(monkeypatch, *faults)
        assert main([
            "loadgen", "--detector", "modsecurity", "--requests", "40",
            "--benign", "40", "--vulnerabilities", "2",
        ]) == code
        assert ("PARITY" if code == 0 else "MISMATCH") in (
            capsys.readouterr().out
        )


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
        assert report.parity_ok and report.divergences == []
        assert parity_line(report).startswith(f"PARITY: {len(PAYLOADS)}")

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
