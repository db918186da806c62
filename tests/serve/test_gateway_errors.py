"""Gateway error paths: bad input must be answered, never fatal.

Three families of malformed input reach a live gateway in practice —
a broken control-plane HTTP request, a data-plane line beyond the
protocol bound, and a reload pointing at a signature file that is not
there.  Each must produce a clean, in-order error response *and leave
the gateway serving*: the connection loop, the worker pool, and the
mounted signature generation all survive the bad request.
"""

import asyncio
import gc
import json
import os
import re
import resource
import select
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.http import HttpRequest
from repro.ids import DeterministicRuleSet, Rule
from repro.serve import DetectionGateway, GatewayConfig, SignatureStore
from repro.serve.protocol import MAX_LINE_BYTES, encode_framed_request

from tests.serve.client import http, send_lines


def toy_detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


async def raw_http(host, port, raw: bytes):
    """Send raw bytes as a one-shot exchange, return (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, payload = response.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(payload)


async def send_past_the_answer(host, port, head: bytes) -> bytes:
    """Send ``head``, then keep sending after the server has answered it
    and stopped reading, and only then read everything it sent."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(head)
    await writer.drain()
    for _ in range(3):
        await asyncio.sleep(0.1)
        writer.write(b"a" * 4096)
        await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


class TestMalformedControlPlane:
    def test_header_without_colon_gets_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            status, body = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\nthis is not a header\r\n\r\n",
            )
            # The listener survives: a well-formed request still works.
            after = await http(host, port, "GET", "/healthz")
            gateway.stop()
            return (status, body), after, gateway.telemetry.counter(
                "protocol_errors"
            )

        (status, body), (after_status, after_body), errors = asyncio.run(
            scenario()
        )
        assert status == 400
        assert "malformed header" in body["error"]
        assert errors == 1
        assert after_status == 200 and after_body["status"] == "ok"

    def test_unparseable_content_length_gets_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            result = await raw_http(
                host, port,
                b"POST /inspect HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n",
            )
            gateway.stop()
            return result

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "content-length" in body["error"]

    def test_header_line_past_the_stream_limit_gets_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            result = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (300 * 1024)
                + b"\r\n\r\n",
            )
            after = await http(host, port, "GET", "/healthz")
            gateway.stop()
            return result, after, gateway.telemetry.counter(
                "protocol_errors"
            )

        (status, body), (after_status, _), errors = asyncio.run(scenario())
        assert status == 400
        assert "too long" in body["error"]
        assert errors == 1
        assert after_status == 200

    def test_a_client_still_sending_reads_its_400(self):
        # After the 400 the gateway half-closes and drops what the
        # client still sends: closing with it unread would reset the
        # connection and could destroy the answer.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            response = await send_past_the_answer(
                host, port,
                b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (300 * 1024),
            )
            gateway.stop()
            return response

        head, _, body = asyncio.run(scenario()).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "too long" in json.loads(body)["error"]

    def test_truncated_body_gets_400_not_a_hang(self):
        # Content-Length promises more bytes than the client sends, then
        # the client closes: readexactly raises IncompleteReadError and
        # the gateway must answer 400 instead of leaking the connection.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /inspect HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
            )
            writer.write_eof()
            response = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            # Still serving afterwards.
            after = await http(host, port, "GET", "/healthz")
            gateway.stop()
            return response, after

        response, (after_status, _) = asyncio.run(scenario())
        assert response.split()[1] == b"400"
        assert after_status == 200


class TestOversizedDataPlane:
    @pytest.mark.parametrize("size", [
        MAX_LINE_BYTES + 1,  # over the protocol bound, under the stream's
        320 * 1024,  # over the 256 KiB stream limit
        512 * 1024,
    ])
    def test_oversized_line_midstream_keeps_the_connection(self, size):
        # good, oversized, good on ONE connection: the oversized line is
        # answered with one in-order error and the reader keeps going.
        # The client half-closes and reads to EOF, so an extra answer
        # for the long line fails the count.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"id=1' union select 1\n" + b"x" * size + b"\nq=after\n"
            )
            writer.write_eof()
            await writer.drain()
            responses = [json.loads(line) async for line in reader]
            writer.close()
            await writer.wait_closed()
            gateway.stop()
            return responses, gateway.telemetry.counter("protocol_errors")

        responses, errors = asyncio.run(scenario())
        assert len(responses) == 3
        first, middle, last = responses
        assert first["alert"] is True
        assert middle == {"error": "line too long"}
        assert last["alert"] is False
        assert errors == 1

    def test_overlong_frame_trailer_gets_one_error(self):
        # A frame whose body is followed by 300 KiB before the newline:
        # one error for the frame, then the connection goes on serving.
        async def scenario():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: logged.append(context)
            )
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_framed_request(HttpRequest(query="id=2"))
            writer.write(
                b"q=before\n" + frame[:-1] + b"x" * (300 * 1024)
                + b"\nq=after\n"
            )
            writer.write_eof()
            await writer.drain()
            responses = [json.loads(line) async for line in reader]
            writer.close()
            await writer.wait_closed()
            gateway.stop()
            gc.collect()  # an unretrieved task exception logs on collection
            return responses, gateway.telemetry.counter(
                "protocol_errors"
            ), logged

        responses, errors, logged = asyncio.run(scenario())
        assert len(responses) == 3
        before, middle, after = responses
        assert before["alert"] is False
        assert middle == {"error": "frame body not newline-terminated"}
        assert after["alert"] is False
        assert errors == 1
        assert logged == []

    def test_oversized_first_line_of_a_connection(self):
        # The very first line decides the dialect; an oversized one can
        # not be classified and the connection is answered-and-closed —
        # but the *gateway* keeps accepting new connections.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"z" * (5 * MAX_LINE_BYTES) + b"\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            fresh = await send_lines(host, port, ["id=1' union select 1"])
            gateway.stop()
            return error, fresh

        error, fresh = asyncio.run(scenario())
        assert error == {"error": "line too long"}
        assert fresh[0]["alert"] is True

    def test_oversized_first_line_answer_survives_more_input(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            response = await send_past_the_answer(
                host, port, b"z" * (5 * MAX_LINE_BYTES)
            )
            gateway.stop()
            return response

        assert json.loads(asyncio.run(scenario())) == {
            "error": "line too long"
        }


class TestReloadMissingFile:
    def test_missing_file_keeps_old_generation_serving(self, tmp_path):
        missing = tmp_path / "not-there.json"

        async def scenario():
            store = SignatureStore(toy_detector(), path=str(missing))
            gateway = DetectionGateway(store, GatewayConfig())
            host, port = gateway.start()
            before = await send_lines(host, port, ["id=1' union select 1"])
            # Empty body => path-based reload; the file does not exist.
            reload_result = await http(host, port, "POST", "/reload")
            after = await send_lines(host, port, ["id=1' union select 1"])
            health = await http(host, port, "GET", "/healthz")
            gateway.stop()
            return before, reload_result, after, health, store.version

        before, (status, body), after, (h_status, health), version = (
            asyncio.run(scenario())
        )
        assert status == 400
        assert "error" in body and body["version"] == 1
        assert version == 1  # the old generation survived
        # The data plane never noticed: same verdict, same version.
        assert before == after
        assert before[0]["alert"] is True and before[0]["version"] == 1
        assert h_status == 200 and health["status"] == "ok"

    def test_no_path_configured_is_a_clean_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = gateway.start()
            result = await http(host, port, "POST", "/reload")
            gateway.stop()
            return result, gateway.telemetry.counter("reload_failures")

        (status, body), failures = asyncio.run(scenario())
        assert status == 400
        assert "no signature path" in body["error"]
        assert failures == 1


def _cpu_seconds(pid):
    with open(f"/proc/{pid}/schedstat") as handle:
        return int(handle.read().split()[0]) / 1e9


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/schedstat"
)
class TestDescriptorExhaustion:
    def test_accept_pauses_instead_of_spinning(self):
        """Out of file descriptors, the listener stays readable: the loop
        stops accepting for a while instead of retrying at once, keeps
        serving the connections it has, and accepts again once
        descriptors are free."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--detector",
             "modsecurity", "--port", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_NOFILE, (32, 32)
            ),
        )
        clients = []
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            line = server.stdout.readline() if ready else b""
            port = int(re.search(rb" on [^ ]+:(\d+) ", line).group(1))
            clients = [
                socket.create_connection(("127.0.0.1", port), timeout=10)
                for _ in range(48)
            ]
            time.sleep(0.3)  # it accepts what it can, then runs out
            before = _cpu_seconds(server.pid)
            time.sleep(1.0)
            spent = _cpu_seconds(server.pid) - before
            # A connection it accepted is still answered meanwhile.
            first = clients[0]
            first.sendall(b"id=1' union select 1,2,3-- -\n")
            assert first.recv(4096).startswith(b"{")
            for client in clients:
                client.close()
            clients = []
            with socket.create_connection(
                ("127.0.0.1", port), timeout=10
            ) as fresh:
                fresh.sendall(b"q=1\n")
                assert fresh.recv(4096).startswith(b"{")
        finally:
            for client in clients:
                client.close()
            server.terminate()
            server.wait(30)
            server.stdout.close()
        assert spent < 0.5, spent
