"""The one load driver and its parity check.

``run_loadgen`` must come back with every response, in order, and with
offline parity on each framing (line protocol or ``REPRO-FRAME/2``) and
each pacing (closed loop, or open loop at a fixed rate).  The open loop
times a request from its scheduled send, so a stall in the generator is
charged as latency; the closed loop never has more than its window in
flight on a connection, and a connection the server drops leaves its
remaining answers missing.  Parity fails a replay whose answers are
missing or errors, not only one whose verdicts disagree; sheds are
counted and never fail it.
"""

import contextlib
import selectors
import socket
import threading
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

    def tampered(host, port, wires, **pacing):
        responses, latencies, duration = served(host, port, wires, **pacing)
        for fault, index in faults:
            fault(responses, index)
        return responses, latencies, duration

    monkeypatch.setattr(loadgen, "replay", tampered)


def tampered_run(monkeypatch, *faults):
    """``run_loadgen`` over ``PAYLOADS`` with ``faults`` tampered in."""
    tamper(monkeypatch, *faults)
    return run_loadgen(toy_detector(), PAYLOADS, config=GatewayConfig())


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
        report = run_loadgen(
            toy_detector(),
            items,
            config=GatewayConfig(),
            surfaces=LEGACY_SURFACES if framed else None,
            connections=3,
            window=4,
            rate=rate,
        )
        assert report.requests == report.completed == len(PAYLOADS)
        assert report.shed == report.errors == 0
        assert report.alerts == 9
        assert report.offered_rps == rate
        assert report.parity_ok and report.divergences == []
        assert parity_line(report).startswith(f"PARITY: {len(PAYLOADS)}")

    def test_open_loop_counts_latency_from_the_scheduled_send(
        self, monkeypatch
    ):
        class StalledSelector(selectors.DefaultSelector):
            """The replay's selector: its first select stalls the
            client 200 ms."""

            stalled = False

            def select(self, timeout=None):
                if not StalledSelector.stalled:
                    StalledSelector.stalled = True
                    time.sleep(0.2)
                return super().select(timeout)

        gateway = DetectionGateway(
            SignatureStore(toy_detector()), GatewayConfig()
        )
        host, port = gateway.start()
        monkeypatch.setattr(
            loadgen.selectors, "DefaultSelector", StalledSelector
        )
        try:
            responses, latencies, _duration = replay(
                host, port, [encode_line(p) for p in PAYLOADS],
                connections=2, rate=1000.0,
            )
        finally:
            gateway.stop()
        assert StalledSelector.stalled
        assert all(response is not None for response in responses)
        # Every wire fell due within the stall; each is timed from its
        # due instant, however late the stall made its send.
        for index, latency in enumerate(latencies):
            assert latency >= 0.2 - index / 1000.0, (index, latency)


ANSWER = b'{"alert": false, "score": 0.0, "matched": [], "version": 1}\n'


@contextlib.contextmanager
def line_server(handle, connections):
    """A server on a thread per connection: ``handle(sock)`` serves each
    of the first ``connections`` connections, which is then closed.
    Yields the address."""
    listener = socket.create_server(("127.0.0.1", 0))
    threads = []

    def serve(sock):
        with sock:
            handle(sock)

    def accept():
        for _ in range(connections):
            sock, _ = listener.accept()
            threads.append(threading.Thread(target=serve, args=(sock,)))
            threads[-1].start()

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        acceptor.join(10)
        for thread in threads:
            thread.join(10)
        listener.close()
    assert not acceptor.is_alive()
    assert not any(thread.is_alive() for thread in threads)


class TestReplayClient:
    """``replay`` against a line server of the test's own."""

    @pytest.mark.parametrize("rate", [None, 2000.0], ids=["closed", "open"])
    def test_a_hang_up_leaves_the_rest_unanswered(self, rate):
        answers = 3

        def hang_up(sock):
            answered, buffer = 0, b""
            while answered < answers:
                data = sock.recv(65536)
                if not data:
                    return
                *lines, buffer = (buffer + data).split(b"\n")
                count = min(len(lines), answers - answered)
                sock.sendall(ANSWER * count)
                answered += count
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):  # until the client hangs up too
                pass

        with line_server(hang_up, connections=2) as (host, port):
            responses, latencies, _duration = replay(
                host, port, [encode_line(p) for p in PAYLOADS[:20]],
                connections=2, window=8, rate=rate,
            )
        # Two connections: wire i is its connection's (i // 2)-th.
        assert [response is not None for response in responses] == [
            index // 2 < answers for index in range(20)
        ]
        assert all(
            response == {
                "alert": False, "score": 0.0, "matched": [], "version": 1,
            }
            for response in responses[:2 * answers]
        )
        assert (latencies[2 * answers:] == 0).all()

    def test_closed_loop_keeps_at_most_window_unanswered(self):
        window, peaks = 4, []

        def hold_answers(sock):
            received, answered, buffer, peak = 0, 0, b"", 0
            while data := sock.recv(65536):
                *lines, buffer = (buffer + data).split(b"\n")
                received += len(lines)
                peak = max(peak, received - answered)
                # A client past its window would send more meanwhile.
                time.sleep(0.002)
                sock.sendall(ANSWER * (received - answered))
                answered = received
            peaks.append(peak)

        with line_server(hold_answers, connections=3) as (host, port):
            responses, _latencies, _duration = replay(
                host, port, [encode_line(p) for p in PAYLOADS],
                connections=3, window=window,
            )
        assert all(response is not None for response in responses)
        assert len(peaks) == 3
        assert max(peaks) == window
