"""The data plane answers the same bytes the same way, however they arrive.

A seeded stream mixes payload lines (the empty line included), valid
frames, a malformed frame header, a frame body with no newline after
it, and lines longer than ``MAX_LINE_BYTES``.  Sent to a live gateway in
random chunks of 1 B to 64 KiB, it must get exactly the answers the same
stream gets in one write: one per request, in order, with the
connection still serving after every error.  An HTTP head split at any
byte offset must get the status of the unsplit head, and a head of many
lines read a few bytes at a time must be parsed once, not once per read.
"""

import contextlib
import json
import random
import socket
import threading
import time

import pytest

from repro.http import HttpRequest
from repro.serve import DetectionGateway, SignatureStore
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    HttpRequestParser,
    encode_framed_request,
)

from tests.serve.test_gateway import toy_detector

ATTACK = "id=1' union select 1"
BENIGN = "q=hello"


@contextlib.contextmanager
def live_gateway():
    """A gateway running its loop on a thread; yields its address."""
    gateway = DetectionGateway(SignatureStore(toy_detector()))
    address = gateway.start()
    try:
        yield address
    finally:
        gateway.stop()


def build_stream(seed):
    """The stream's bytes and, per request, the answer it must get:
    an expected alert flag, or an error message prefix."""
    rng = random.Random(seed)
    frame = encode_framed_request(HttpRequest(query=ATTACK))
    kinds = ["line", "empty", "frame", "bad header", "no newline",
             "overlong"]
    # Every kind at least twice, in a seeded order, between payloads.
    order = kinds * 2 + [rng.choice(kinds) for _ in range(20)]
    rng.shuffle(order)
    wire, expected = [], []
    for kind in order:
        if kind == "line":
            payload = rng.choice([ATTACK, BENIGN])
            wire.append(payload.encode() + b"\n")
            expected.append(payload == ATTACK)
        elif kind == "empty":
            wire.append(b"\n")
            expected.append(False)
        elif kind == "frame":
            wire.append(frame)
            expected.append(True)
        elif kind == "bad header":
            wire.append(b"REPRO-FRAME/2 banana\n")
            expected.append("bad frame header")
        elif kind == "no newline":
            # The next line stands where the body's newline belongs.
            wire.append(frame[:-1] + BENIGN.encode() + b"\n")
            expected.append("frame body not newline-terminated")
        else:
            size = MAX_LINE_BYTES + rng.randrange(1, 3 * MAX_LINE_BYTES)
            wire.append(b"x" * size + b"\n")
            expected.append("line too long")
        # A payload after each request shows the connection serving on.
        wire.append(ATTACK.encode() + b"\n")
        expected.append(True)
    return b"".join(wire), expected


def chunks(stream, rng):
    """``stream`` cut into pieces of 1 B to 64 KiB, log-uniformly."""
    pos = 0
    while pos < len(stream):
        size = int(2 ** rng.uniform(0, 16))
        yield stream[pos:pos + size]
        pos += size


def answers(address, pieces, pause=0.0):
    """Send ``pieces`` on one connection, then half-close and read every
    answer line until the gateway closes."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        received = []
        reader = threading.Thread(target=_read_all, args=(sock, received))
        reader.start()
        for piece in pieces:
            sock.sendall(piece)
            if pause:
                time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        reader.join(30)
    return [json.loads(line) for line in b"".join(received).splitlines()]


def _read_all(sock, received):
    while data := sock.recv(65536):
        received.append(data)


def check(answers_, expected):
    assert len(answers_) == len(expected)
    for answer, want in zip(answers_, expected):
        if isinstance(want, bool):
            assert answer.get("alert") is want, answer
        else:
            assert answer["error"].startswith(want), answer


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_chunks_get_the_one_write_answers(seed):
    stream, expected = build_stream(seed)
    with live_gateway() as address:
        whole = answers(address, [stream])
        check(whole, expected)
        rng = random.Random(1000 + seed)
        pieces = list(chunks(stream, rng))
        assert min(map(len, pieces)) < 64 <= max(map(len, pieces))
        assert answers(address, pieces, pause=0.0005) == whole


class ScanCounter(bytearray):
    """A connection buffer that tallies the bytes each newline search
    covers and the most it ever held when searched."""

    scanned = 0
    largest = 0

    def find(self, sub, start=0, *args):
        ScanCounter.scanned += len(self) - start
        ScanCounter.largest = max(ScanCounter.largest, len(self))
        return super().find(sub, start, *args)


@pytest.fixture
def counted_buffers(monkeypatch):
    import repro.serve.gateway as gateway_module

    monkeypatch.setattr(ScanCounter, "scanned", 0)
    monkeypatch.setattr(ScanCounter, "largest", 0)
    monkeypatch.setattr(
        gateway_module, "bytearray", ScanCounter, raising=False
    )
    return gateway_module


def test_a_long_line_in_small_reads_is_scanned_once(
    counted_buffers, monkeypatch
):
    # Seven bytes per recv: a newline search that restarted at the
    # line's start would cover about n**2 / 14 bytes, not n.  The long
    # line comes first (the dialect is still open) and second.
    monkeypatch.setattr(counted_buffers, "RECV_BYTES", 7)
    line = b"q=" + b"a" * 40_000 + b"\n"
    with live_gateway() as address:
        got = answers(address, [line, line, ATTACK.encode() + b"\n"])
    assert [answer["alert"] for answer in got] == [False, False, True]
    assert ScanCounter.scanned < 3 * 2 * len(line)


def test_an_overlong_line_is_never_kept_whole(counted_buffers):
    stream = (
        b"q=1\n" + b"x" * (5 * MAX_LINE_BYTES) + b"\n"
        + ATTACK.encode() + b"\n"
    )
    with live_gateway() as address:
        got = answers(address, [stream])
    assert [answer.get("error") for answer in got] == [
        None, "line too long", None,
    ]
    assert got[2]["alert"] is True
    # What is left of a line after a read, plus one read.
    assert ScanCounter.largest <= MAX_LINE_BYTES + counted_buffers.RECV_BYTES


def test_a_head_of_many_lines_in_small_reads_is_parsed_once(
    counted_buffers, monkeypatch
):
    # Seven bytes per recv: a parse that restarted at the head's start
    # on every read would search about n**2 / 14 bytes, not n.
    monkeypatch.setattr(counted_buffers, "RECV_BYTES", 7)
    head = b"GET /healthz HTTP/1.1\r\n" + b"a:b\r\n" * 5000 + b"\r\n"
    with live_gateway() as address:
        assert status(address, [head]) == 200
    assert ScanCounter.scanned < 4 * len(head)


def test_the_http_parser_reads_each_head_line_once():
    # The parser alone, fed a byte at a time: its work stays linear
    # however the reads split the head.
    head = (
        b"POST /reload HTTP/1.1\r\n" + b"a:b\r\n" * 2000
        + b"Content-Length: 4\r\n\r\nbody"
    )
    parser = HttpRequestParser()
    buffer = ScanCounter()
    ScanCounter.scanned = 0
    for offset in range(len(head)):
        assert parser.feed(buffer) is None
        buffer += head[offset:offset + 1]
    message = parser.feed(buffer)
    assert (message.method, message.path, message.body) == (
        "POST", "/reload", "body",
    )
    assert message.headers == {"a": "b", "content-length": "4"}
    assert ScanCounter.scanned < 2 * len(head)


HEADS = [
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200),
    (b"POST /inspect HTTP/1.1\r\nContent-Length: 20\r\n\r\n"
     b"id=1' union select 1", 200),
    (b"GET /nope HTTP/1.0\nHost: t\n\n", 404),
    (b"GET /healthz HTTP/1.1\r\nthis is not a header\r\n\r\n", 400),
    (b"POST /inspect HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
]


def status(address, pieces):
    with socket.create_connection(address, timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index, piece in enumerate(pieces):
            if index:
                time.sleep(0.0005)
            sock.sendall(piece)
        received = []
        _read_all(sock, received)
    return int(b"".join(received).split()[1])


@pytest.mark.parametrize("head, code", HEADS, ids=[
    "healthz", "inspect", "not-found", "no-colon", "bad-length",
])
def test_an_http_head_split_anywhere_gets_one_status(head, code):
    with live_gateway() as address:
        assert status(address, [head]) == code
        for offset in range(1, len(head)):
            assert status(
                address, [head[:offset], head[offset:]]
            ) == code, offset
