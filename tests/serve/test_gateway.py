"""Gateway round-trip tests: line protocol, control plane, hot reload.

The acceptance bar: for a fixed trace, alerts/scores through the
gateway are identical to ``SignatureEngine.run`` offline — including
across a mid-stream hot signature reload, where requests admitted
before the swap are answered by the old generation and requests after
it by the new one.
"""

import asyncio
import json
import socket

import pytest

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


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


async def send_lines(host, port, payloads):
    """Send payload lines on one connection, return decoded responses."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for payload in payloads:
            writer.write(payload.encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def http(host, port, method, path, body=""):
    """One-shot control-plane exchange, returns (status, json body)."""
    reader, writer = await asyncio.open_connection(host, port)
    encoded = body.encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(encoded)}\r\n\r\n"
    )
    writer.write(head.encode() + encoded)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split()[1])
    return status, json.loads(payload)


class TestLineProtocol:
    def test_round_trip(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            responses = await send_lines(host, port, [
                "id=1' union select 1", "q=hello",
            ])
            await gateway.stop()
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
            host, port = await gateway.start()
            responses = await send_lines(host, port, ["", "q=hello"])
            await gateway.stop()
            return responses

        empty, hello = asyncio.run(scenario())
        assert empty["alert"] is False and empty["score"] == 0.0
        assert hello["alert"] is False

    def test_oversized_line_answers_error(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * (70 * 1024) + b"\nq=ok\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
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
            host, port = await gateway.start()
            # A burst bigger than the backlog bound from many
            # connections: at least one request must be refused.
            results = await asyncio.gather(*(
                send_lines(host, port, [f"id={i}' union select 1"] * 8)
                for i in range(8)
            ))
            await gateway.stop()
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


class TestBacklog:
    """The backlog's drain step over TCP: order, bounds, errors."""

    def test_shed_burst_answers_every_line_at_its_position(self):
        payloads = alternating(300)

        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=4, policy="shed"),
            )
            host, port = await gateway.start()
            responses = await burst(host, port, payloads)
            await gateway.stop()
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
            host, port = await gateway.start()
            responses = await burst(host, port, payloads)
            await gateway.stop()
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
            host, port = await gateway.start()
            responses = await burst(host, port, alternating(500))
            await gateway.stop()
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
            host, port = await gateway.start()
            responses = await burst(host, port, [
                "id=1' union select 1", "q=boom", "id=2' union select 1",
            ])
            await gateway.stop()
            return responses, gateway.telemetry

        (before, error, after), telemetry = asyncio.run(scenario())
        assert before["alert"] is True
        assert error == {"error": "detector error: boom"}
        assert after["alert"] is True and after["matched"] == [1]
        assert telemetry.counter("errors") == 1
        assert telemetry.counter("inspected") == 2


    def test_cancelled_in_process_caller_is_skipped(self):
        """A caller that gives up keeps its place in the backlog; the
        drain step inspects it, skips its future and answers the rest."""

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            await gateway.start()
            gone = asyncio.ensure_future(gateway.inspect("q=1"))
            kept = asyncio.ensure_future(
                gateway.inspect("id=1' union select 1")
            )
            await asyncio.sleep(0)  # both admitted; the drain is pending
            gone.cancel()
            answer = await asyncio.wait_for(kept, timeout=5)
            drained = await gateway.stop()
            return gone.cancelled(), answer, drained, gateway.telemetry

        cancelled, answer, drained, telemetry = asyncio.run(scenario())
        assert cancelled
        assert answer["alert"] is True
        assert drained
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
            host, port = await gateway.start(sock=listener)
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
                w.transport.get_write_buffer_size()
                for w in gateway._connections
            )
            writer.transport.abort()
            await gateway.stop()
            return inspected, buffered

        inspected, buffered = asyncio.run(scenario())
        assert 0 < inspected < lines
        assert buffered < 256 * 1024


class TestControlPlane:
    def test_healthz_and_stats(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            await send_lines(host, port, ["id=1' union select 1"])
            health = await http(host, port, "GET", "/healthz")
            stats = await http(host, port, "GET", "/stats")
            await gateway.stop()
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
            host, port = await gateway.start()
            result = await http(
                host, port, "POST", "/inspect", "id=1' union select 1"
            )
            await gateway.stop()
            return result

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["alert"] is True

    def test_unknown_route_and_method(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            missing = await http(host, port, "GET", "/nope")
            wrong = await http(host, port, "POST", "/healthz")
            await gateway.stop()
            return missing, wrong

        (m_status, _), (w_status, _) = asyncio.run(scenario())
        assert m_status == 404
        assert w_status == 405

    def test_reload_rejects_bad_json(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            status, body = await http(
                host, port, "POST", "/reload", "{broken"
            )
            await gateway.stop()
            return status, body, gateway.store.version

        status, body, version = asyncio.run(scenario())
        assert status == 400
        assert "error" in body
        assert version == 1


class TestHotReload:
    def test_admission_time_snapshot(self):
        """Requests admitted before a swap answer with the old version,
        later ones with the new — deterministically, via the in-process
        admission path (no scheduling races)."""

        async def scenario():
            store = SignatureStore(toy_detector())
            gateway = DetectionGateway(store)
            await gateway.start()
            old = asyncio.ensure_future(
                gateway.inspect("id=1' union select 1")
            )
            # One loop turn admits request 1; its drain step is
            # scheduled behind this coroutine, so the swap lands while
            # request 1 is still in the backlog (in flight).
            await asyncio.sleep(0)
            assert gateway.admission.depth == 1
            store.swap_detector(
                DeterministicRuleSet(
                    "toy2", [Rule(9, "any", r".")]
                ),
                source="test",
            )
            new = await gateway.inspect("id=1' union select 1")
            old = await old
            await gateway.stop()
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
            host, port = await gateway.start()
            first = await send_lines(host, port, payloads[:half])
            status, body = await http(
                host, port, "POST", "/reload",
                signature_set_to_json(reduced),
            )
            second = await send_lines(host, port, payloads[half:])
            await gateway.stop()
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

        report = asyncio.run(run_loadgen(
            detector,
            payloads,
            config=GatewayConfig(queue_bound=64, policy="block"),
            connections=4,
            window=8,
        ))
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
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=64),
            )
            await gateway.start()
            pending = [
                asyncio.ensure_future(
                    gateway.inspect(f"id={i}' union select 1")
                )
                for i in range(20)
            ]
            await asyncio.sleep(0)  # all 20 admitted, none answered yet
            depth = gateway.admission.depth
            drained = await gateway.stop()
            return depth, drained, await asyncio.gather(*pending)

        depth, drained, responses = asyncio.run(scenario())
        assert depth == 20
        assert drained
        assert len(responses) == 20
        assert all(r["alert"] for r in responses)
