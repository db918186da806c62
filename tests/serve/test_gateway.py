"""Gateway round-trip tests: line protocol, control plane, hot reload.

The acceptance bar: for a fixed trace, alerts/scores through the
gateway are identical to ``SignatureEngine.run`` offline — including
across a mid-stream hot signature reload, where requests admitted
before the swap are answered by the old generation and requests after
it by the new one.
"""

import asyncio
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro.conformance.verdict import (
    diff_verdicts,
    serial_verdicts,
    verdicts_from_responses,
)
from repro.core import SignatureSet, signature_set_to_json
from repro.http import HttpRequest, Trace
from repro.ids import (
    DeterministicRuleSet,
    PSigeneDetector,
    Rule,
    SignatureEngine,
)
from repro.serve import (
    DetectionGateway,
    GatewayConfig,
    SignatureStore,
    build_load_trace,
    run_loadgen,
)
from repro.serve.gateway import MAX_UNANSWERED_PER_CONNECTION

from tests.serve.client import ask, http, send_lines, submit


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


class TestLineProtocol:
    def test_round_trip(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            responses = await send_lines(host, port, [
                "id=1' union select 1", "q=hello",
            ])
            gateway.stop()
            return responses

        first, second = asyncio.run(scenario())
        assert first == {
            "alert": True, "score": 1.0, "matched": [1], "version": 1,
        }
        assert second["alert"] is False

    def test_empty_line_is_an_empty_payload(self):
        """Blank lines are scored like any request with no query string —
        skipping them would desync response ordering and break parity
        with the offline engine on traces containing static fetches."""

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            responses = await send_lines(host, port, ["", "q=hello"])
            gateway.stop()
            return responses

        empty, hello = asyncio.run(scenario())
        assert empty["alert"] is False and empty["score"] == 0.0
        assert hello["alert"] is False

    def test_oversized_line_answers_error(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * (70 * 1024) + b"\nq=ok\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            gateway.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert "error" in first
        assert second["alert"] is False

    def test_shed_policy_over_tcp(self):
        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=1, policy="shed"),
            )
            host, port = gateway.start()
            # A burst bigger than the backlog bound from many
            # connections: at least one request must be refused.
            results = await asyncio.gather(*(
                send_lines(host, port, [f"id={i}' union select 1"] * 8)
                for i in range(8)
            ))
            gateway.stop()
            flattened = [r for batch in results for r in batch]
            return flattened, gateway.telemetry.counter("shed")

        responses, shed_counter = asyncio.run(scenario())
        sheds = [r for r in responses if r.get("shed")]
        serviced = [r for r in responses if not r.get("shed")]
        assert sheds, "burst never overflowed the bounded queue"
        assert shed_counter == len(sheds)
        assert all(r["alert"] for r in serviced)


def alternating(count):
    """``count`` payload lines whose verdicts alternate, alert first."""
    return [
        f"id={i}' union select 1" if i % 2 == 0 else f"q=hello{i}"
        for i in range(count)
    ]


async def burst(host, port, payloads):
    """Pipeline every line in one write on ONE connection; read every
    answer."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"".join(p.encode() + b"\n" for p in payloads))
        await writer.drain()
        return [
            json.loads(await asyncio.wait_for(reader.readline(), 10))
            for _ in payloads
        ]
    finally:
        writer.close()
        await writer.wait_closed()


class ExplodingDetector:
    """The toy rule set, except that one payload makes it raise."""

    name = "exploding"

    def __init__(self, trigger):
        self.trigger = trigger
        self.inner = toy_detector()

    def inspect(self, payload):
        if payload == self.trigger:
            raise RuntimeError("boom")
        return self.inner.inspect(payload)


class GatedDetector:
    """The toy rule set, except that a payload registered with
    :meth:`hold` waits inside ``inspect`` until the test releases it.

    The gateway's loop thread then stands still inside a drain step, so
    a test can act while requests are admitted and not yet answered,
    and requests it sends meanwhile wait for the next select round.
    """

    name = "gated"

    def __init__(self):
        self.inner = toy_detector()
        self.entered = {}
        self.released = {}

    def hold(self, payload):
        self.entered[payload] = threading.Event()
        self.released[payload] = threading.Event()
        return payload

    def inspect(self, payload):
        if payload in self.released:
            self.entered[payload].set()
            self.released[payload].wait(10)
        return self.inner.inspect(payload)

    async def wait_entered(self, payload):
        await asyncio.to_thread(self.entered[payload].wait, 10)


class TestBacklog:
    """The backlog's drain step over TCP: order, bounds, errors."""

    def test_shed_burst_answers_every_line_at_its_position(self):
        payloads = alternating(300)

        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=4, policy="shed"),
            )
            host, port = gateway.start()
            responses = await burst(host, port, payloads)
            gateway.stop()
            return responses, gateway.telemetry.counter("shed")

        responses, shed_counter = asyncio.run(scenario())
        assert len(responses) == len(payloads)
        sheds = [r for r in responses if r.get("shed")]
        assert sheds, "a 300-line burst never overflowed a bound of 4"
        assert shed_counter == len(sheds)
        serviced = 0
        for index, response in enumerate(responses):
            if response.get("shed"):
                continue
            serviced += 1
            expected = index % 2 == 0
            assert response["alert"] is expected, (index, response)
            assert response["matched"] == ([1] if expected else [])
        assert serviced >= 4

    def test_block_at_bound_one_never_sheds_and_keeps_order(self):
        payloads = alternating(500)

        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=1, policy="block"),
            )
            host, port = gateway.start()
            responses = await burst(host, port, payloads)
            gateway.stop()
            return responses, gateway.telemetry.counter("shed")

        responses, shed_counter = asyncio.run(scenario())
        assert shed_counter == 0
        assert [r.get("shed") for r in responses] == [None] * 500
        assert [r["alert"] for r in responses] == [
            index % 2 == 0 for index in range(500)
        ]

    def test_a_connection_waits_at_its_unanswered_cap(self, monkeypatch):
        """One connection's burst joins the backlog at most
        ``MAX_UNANSWERED_PER_CONNECTION`` lines per drain."""
        drained = []

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            drain = gateway._drain

            def recording_drain():
                drained.append(len(gateway._backlog))
                drain()

            monkeypatch.setattr(gateway, "_drain", recording_drain)
            host, port = gateway.start()
            responses = await burst(host, port, alternating(500))
            gateway.stop()
            return responses

        responses = asyncio.run(scenario())
        assert [r["alert"] for r in responses] == [
            index % 2 == 0 for index in range(500)
        ]
        assert sum(drained) == 500
        assert max(drained) <= MAX_UNANSWERED_PER_CONNECTION

    def test_detector_error_answers_that_line_and_serves_the_next(self):
        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(ExplodingDetector("q=boom"))
            )
            host, port = gateway.start()
            responses = await burst(host, port, [
                "id=1' union select 1", "q=boom", "id=2' union select 1",
            ])
            gateway.stop()
            return responses, gateway.telemetry

        (before, error, after), telemetry = asyncio.run(scenario())
        assert before["alert"] is True
        assert error == {"error": "detector error: boom"}
        assert after["alert"] is True and after["matched"] == [1]
        assert telemetry.counter("errors") == 1
        assert telemetry.counter("inspected") == 2

    def test_unread_answers_stop_the_reader(self):
        """A peer that never reads its answers gets backpressure: the
        gateway stops reading its lines instead of buffering answers."""
        lines = 50_000

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            # Small kernel buffers on both ends (an accepted socket
            # inherits the listener's), so the gateway's own send buffer
            # is what fills.
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            host, port = gateway.start(sock=listener)
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
            client.connect((host, port))
            _reader, writer = await asyncio.open_connection(sock=client)
            writer.write(b"q=1\n" * lines)
            inspected = -1
            for _ in range(200):  # until the gateway stops making progress
                await asyncio.sleep(0.05)
                if gateway.telemetry.counter("inspected") == inspected:
                    break
                inspected = gateway.telemetry.counter("inspected")
            buffered = max(
                len(conn.out) for conn in gateway._connections.values()
            )
            writer.transport.abort()
            gateway.stop()
            return inspected, buffered

        inspected, buffered = asyncio.run(scenario())
        assert 0 < inspected < lines
        assert buffered < 256 * 1024


class TestControlPlane:
    def test_healthz_and_stats(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            await send_lines(host, port, ["id=1' union select 1"])
            health = await http(host, port, "GET", "/healthz")
            stats = await http(host, port, "GET", "/stats")
            gateway.stop()
            return health, stats

        (h_status, health), (s_status, stats) = asyncio.run(scenario())
        assert h_status == 200
        assert health["status"] == "ok"
        assert health["detector"] == "toy"
        assert s_status == 200
        assert stats["counters"]["inspected"] == 1
        assert stats["counters"]["alerted"] == 1
        assert stats["latency"]["service"]["count"] == 1
        assert stats["store"]["version"] == 1

    def test_inspect_endpoint(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            result = await http(
                host, port, "POST", "/inspect", "id=1' union select 1"
            )
            gateway.stop()
            return result

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["alert"] is True

    def test_inspect_endpoint_answers_503_when_shed(self):
        """``POST /inspect`` goes through admission like a line: at a
        full ``shed`` backlog it is refused, and the refusal is a 503."""
        body = b"id=1' union select 1"

        async def scenario():
            gate = GatedDetector()
            gateway = DetectionGateway(
                SignatureStore(gate),
                GatewayConfig(queue_bound=1, policy="shed"),
            )
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /inspect HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)
            )
            await writer.drain()
            # One line connection: its held first line fills the bound,
            # the next ones are shed up to its unanswered cap, and its
            # last line waits in its buffer for that drain step to end.
            held = gate.hold("hold id=0' union select 1")
            lines = asyncio.ensure_future(burst(host, port, (
                [held] + ["q=shed"] * (MAX_UNANSWERED_PER_CONNECTION - 1)
                + ["q=last"]
            )))
            await gate.wait_entered(held)
            # The body arrives while the drain step is held.  When it
            # ends, ``q=last`` fills the backlog again before the next
            # round reads the completed request.
            writer.write(body)
            await writer.drain()
            gate.released[held].set()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            answers = await lines
            gateway.stop()
            return raw, answers

        raw, answers = asyncio.run(scenario())
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 503")
        assert json.loads(payload) == {
            "shed": True, "error": "queue full (1 waiting)",
        }
        assert answers[0]["alert"] is True
        assert all(answer.get("shed") for answer in answers[1:-1])
        assert answers[-1]["alert"] is False

    def test_unknown_route_and_method(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            missing = await http(host, port, "GET", "/nope")
            wrong = await http(host, port, "POST", "/healthz")
            gateway.stop()
            return missing, wrong

        (m_status, _), (w_status, _) = asyncio.run(scenario())
        assert m_status == 404
        assert w_status == 405

    def test_reload_rejects_bad_json(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            status, body = await http(
                host, port, "POST", "/reload", "{broken"
            )
            gateway.stop()
            return status, body, gateway.store.version

        status, body, version = asyncio.run(scenario())
        assert status == 400
        assert "error" in body
        assert version == 1


class TestHotReload:
    def test_admission_time_snapshot(self):
        """A request admitted before a swap answers with the old version,
        a later one with the new — deterministically: the swap lands
        while the first request is admitted and its drain step is held."""

        async def scenario():
            gate = GatedDetector()
            store = SignatureStore(gate)
            gateway = DetectionGateway(store)
            host, port = gateway.start()
            first = gate.hold("hold id=0' union select 1")
            second = gate.hold("hold id=1' union select 1")
            blocker = await submit(host, port, first)
            await gate.wait_entered(first)
            # Both are sent while the loop holds ``first``'s drain step.
            in_flight = await submit(host, port, second)
            queued = await submit(host, port, "id=1' union select 1")
            gate.released[first].set()
            await gate.wait_entered(second)
            # One round admitted both with generation 1; its drain
            # step holds ``second`` (in flight) while the swap lands.
            assert gateway.admission.depth == 2
            store.swap_detector(
                DeterministicRuleSet(
                    "toy2", [Rule(9, "any", r".")]
                ),
                source="test",
            )
            gate.released[second].set()
            new = await ask(host, port, "id=1' union select 1")
            await asyncio.gather(blocker, in_flight)
            old = await queued
            gateway.stop()
            return old, new

        old, new = asyncio.run(scenario())
        assert old["version"] == 1 and old["matched"] == [1]
        assert new["version"] == 2 and new["matched"] == [9]

    @pytest.mark.smoke
    def test_midstream_reload_parity(self, small_signatures):
        """Offline/online parity on a fixed trace across a live swap.

        First half served by the full signature set, second half by a
        reduced set; each half must match the corresponding offline
        engine bit-for-bit.
        """
        full = small_signatures
        reduced = SignatureSet(list(full)[: max(1, len(full) // 2)])
        trace = build_load_trace(seed=11, n_benign=40, n_vulnerabilities=2)
        payloads = trace.payloads()[:60]
        half = len(payloads) // 2

        async def scenario():
            store = SignatureStore(PSigeneDetector(full))
            gateway = DetectionGateway(store)
            host, port = gateway.start()
            first = await send_lines(host, port, payloads[:half])
            status, body = await http(
                host, port, "POST", "/reload",
                signature_set_to_json(reduced),
            )
            second = await send_lines(host, port, payloads[half:])
            gateway.stop()
            return first, (status, body), second

        first, (status, body), second = asyncio.run(scenario())
        assert status == 200 and body["version"] == 2
        assert all(r["version"] == 1 for r in first)
        assert all(r["version"] == 2 for r in second)

        for signatures, part, responses in (
            (full, payloads[:half], first), (reduced, payloads[half:], second)
        ):
            assert diff_verdicts(
                "offline", serial_verdicts(PSigeneDetector(signatures), part),
                "gateway", verdicts_from_responses(responses, "gateway"),
                part,
            ) == []


class TestLoadgenParity:
    @pytest.mark.smoke
    def test_gateway_matches_offline_engine(self, small_signatures):
        """End-to-end: the loadgen replay agrees with SignatureEngine.run
        on every alert flag, sid list, and score."""
        detector = PSigeneDetector(small_signatures)
        trace = build_load_trace(seed=9, n_benign=60, n_vulnerabilities=2)
        payloads = trace.payloads()[:120]

        report = run_loadgen(
            detector,
            payloads,
            config=GatewayConfig(queue_bound=64, policy="block"),
            connections=4,
            window=8,
        )
        assert report.parity_ok
        assert report.shed == 0
        assert report.completed == len(payloads)

        engine_run = SignatureEngine(detector).run(Trace(
            name="offline",
            requests=[HttpRequest(query=p) for p in payloads],
        ))
        assert report.alerts == engine_run.alert_count


class TestDrainOnShutdown:
    def test_queued_work_answered_before_close(self):
        async def scenario():
            gate = GatedDetector()
            gateway = DetectionGateway(
                SignatureStore(gate), GatewayConfig(queue_bound=64),
            )
            host, port = gateway.start()
            held = gate.hold("hold id=0' union select 1")
            # One round admits the held line and the 20 behind it; the
            # stop is requested while its drain step holds the first.
            lines = asyncio.ensure_future(burst(host, port, [held] + [
                f"id={i}' union select 1" for i in range(20)
            ]))
            await gate.wait_entered(held)
            depth = gateway.admission.depth
            gateway.request_stop()
            gate.released[held].set()
            drained = await asyncio.to_thread(gateway.stop)
            return depth, drained, await lines

        depth, drained, responses = asyncio.run(scenario())
        assert depth == 21
        assert drained
        assert len(responses) == 21
        assert all(r["alert"] for r in responses)

    def test_stop_on_a_gateway_never_started_returns_true(self):
        gateway = DetectionGateway(SignatureStore(toy_detector()))
        assert gateway.stop() is True
        assert gateway.admission.closed


def _ipv6_loopback():
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


HOSTS = [
    pytest.param("::1", marks=pytest.mark.skipif(
        not _ipv6_loopback(), reason="no IPv6 loopback"
    )),
    "localhost",  # a name: bound on every address it resolves to
]


@pytest.mark.parametrize("bind", HOSTS)
def test_a_gateway_listens_on_its_host(bind):
    async def scenario():
        gateway = DetectionGateway(
            SignatureStore(toy_detector()), GatewayConfig(host=bind),
        )
        host, port = gateway.start()
        try:
            return host, await send_lines(host, port, ["id=1' union select 1"])
        finally:
            gateway.stop()

    host, (answer,) = asyncio.run(scenario())
    assert host == bind or bind == "localhost"
    assert answer["alert"] is True


def _fetch(address, request: bytes) -> bytes:
    """Send ``request`` on one connection, end it, and read to EOF."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    return answer


@pytest.mark.parametrize("bind", HOSTS)
def test_a_fleet_listens_on_its_host(bind, tmp_path):
    # The shared data port binds the first address the host resolves
    # to, in its family; the control port binds as a gateway does.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    log = tmp_path / "stderr.log"
    with open(log, "wb") as stderr, subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--detector",
         "modsecurity", "--shards", "2", "--host", bind, "--port", "0",
         "--control-port", "0"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=stderr,
    ) as server:
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            line = server.stdout.readline().decode() if ready else ""
            match = re.search(r" on (\S+):(\d+) \(control (\S+):(\d+),", line)
            assert match, f"no startup line: {line!r}"
            data = (match.group(1), int(match.group(2)))
            control = (match.group(3), int(match.group(4)))
            answer = json.loads(_fetch(data, b"id=1' union select 1\n"))
            health = _fetch(control, b"GET /healthz HTTP/1.1\r\n\r\n")
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
    assert bind == "localhost" or data[0] == control[0] == bind
    assert answer["alert"] is True
    head, _, body = health.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(body)["live"] == 2
    assert code == 0
    assert log.read_text() == ""
