"""Wire protocol of the detection gateway: line-delimited TCP plus HTTP.

One listening port speaks both dialects, disambiguated by the first
line of a connection:

- **Line protocol** (the data plane): every line the client sends is one
  detector-visible payload (exactly what
  :meth:`~repro.http.request.HttpRequest.payload` yields — query string
  plus form body, which never contains a newline).  The gateway answers
  each line with one JSON object: ``{"alert": bool, "score": float,
  "matched": [sids], "version": n}``, or ``{"shed": true, ...}`` when
  admission control refused the request.
- **Framed full-request mode** (wire format v2, same data plane): a line
  shaped like ``REPRO-FRAME/2 <nbytes>`` announces one whole HTTP
  request as an ``nbytes``-long JSON document (method, path, query,
  headers, body, optional ``stored`` pairs and ``surfaces`` selection)
  followed by a newline.  The gateway extracts the selected injection
  surfaces, scores each one, and answers with one JSON line carrying the
  legacy fields **plus** surface attribution.  Frames and plain lines
  may be interleaved on one connection; responses stay in request order.
- **HTTP/1.x** (the control plane): a first line shaped like
  ``METHOD /path HTTP/1.x`` switches the connection to one-shot HTTP.
  Routes: ``GET /healthz``, ``GET /stats``, ``GET /metrics``
  (Prometheus text format), ``POST /reload``, ``POST /inspect``.

Keeping framing in one module means the gateway, the load generator,
and the tests all parse and emit identical bytes.  The gateway and the
fleet supervisor share its control-plane pieces too: :func:`serve_http`,
:func:`refuse_http`, :func:`discard_request`, :func:`reload_rejection`
and :func:`run_until_signalled`.
"""

from __future__ import annotations

import json
import re
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Awaitable, Callable

from repro.http.request import HttpRequest
from repro.ids.rules import Detection
from repro.obs.prometheus import CONTENT_TYPE
from repro.serve.telemetry import Telemetry
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    format_surfaces,
    parse_surfaces,
)

if TYPE_CHECKING:
    # The codec alone (load drivers, benchmarks) needs no event loop;
    # the async helpers below import asyncio when they run.
    import asyncio

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "HttpMessage",
    "ProtocolError",
    "decode_framed_request",
    "decode_response",
    "discard_request",
    "encode_detection",
    "encode_error",
    "encode_framed_request",
    "encode_line",
    "encode_shed",
    "encode_surface_detection",
    "frame_header_size",
    "http_response",
    "is_http_request_line",
    "read_http_message",
    "refuse_http",
    "reload_rejection",
    "response_fields",
    "run_until_signalled",
    "serve_http",
]

_HTTP_REQUEST_LINE = re.compile(
    rb"^[A-Z]+ \S+ HTTP/1\.[01]\r?\n?$"
)

MAX_LINE_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Wire format v2: the frame header magic.  The version is part of the
#: magic so a v3 framing can coexist on the same port; a header the
#: gateway does not recognize falls through to the line protocol, where
#: it scores as an (inert) payload — old gateways never crash on new
#: clients, they just answer ``alert: false``.
FRAME_MAGIC = b"REPRO-FRAME/2"
FRAME_VERSION = 2
MAX_FRAME_BYTES = MAX_BODY_BYTES

#: After an answer that ends a connection early, the server reads and
#: drops at most this much of what the client still sends, for at most
#: this long, before it closes.
DISCARD_MAX_BYTES = 1024 * 1024
DISCARD_MAX_S = 1.0


class ProtocolError(ValueError):
    """Malformed input on either dialect."""


def is_http_request_line(line: bytes) -> bool:
    """True when ``line`` opens an HTTP/1.x exchange rather than the
    line protocol."""
    return _HTTP_REQUEST_LINE.match(line) is not None


def response_fields(detection: Detection, version: int) -> dict:
    """The verdict fields of one data-plane answer, in wire order.

    Every verdict-carrying response line starts with exactly these four
    keys; the fleet's shard spot-check answers its probes with them
    too, so the supervisor reads them like any client.
    """
    return {
        "alert": bool(detection.alert),
        "score": float(detection.score),
        "matched": [int(s) for s in detection.matched_sids],
        "version": version,
    }


def _response_line(fields: dict) -> bytes:
    return json.dumps(fields, separators=(",", ":")).encode() + b"\n"


def encode_detection(detection: Detection, version: int) -> bytes:
    """One data-plane response line for a serviced inspection."""
    return _response_line(response_fields(detection, version))


def encode_shed(reason: str) -> bytes:
    """Response line for a request refused by admission control."""
    return _response_line({"shed": True, "error": reason})


def encode_error(reason: str) -> bytes:
    """Response line for a request the gateway could not process."""
    return _response_line({"error": reason})


def frame_header_size(line: bytes) -> int | None:
    """Declared frame-body size when ``line`` is a v2 frame header.

    Returns ``None`` for anything that is not a frame header (the line
    then belongs to the plain line protocol).

    Raises:
        ProtocolError: a recognized header with a malformed or
            out-of-bounds size — the client *meant* to frame, so
            treating the line as a payload would desync the stream.
    """
    if not line.startswith(FRAME_MAGIC + b" "):
        return None
    rest = line[len(FRAME_MAGIC) + 1:].strip()
    try:
        size = int(rest)
    except ValueError as exc:
        raise ProtocolError(f"bad frame header: {line!r}") from exc
    if size < 0 or size > MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame size: {size}")
    return size


def encode_line(payload: str) -> bytes:
    """One line-protocol request: the payload plus its newline.

    Raises:
        ValueError: the payload holds a line break; on the wire it would
            split into two requests and shift every later verdict on
            the connection.
    """
    if "\n" in payload or "\r" in payload:
        raise ValueError(
            f"payload contains a line break and cannot travel on the "
            f"line protocol: {payload[:80]!r}"
        )
    return payload.encode("utf-8", errors="replace") + b"\n"


def encode_framed_request(
    request: HttpRequest,
    surfaces: tuple[InjectionSurface, ...] | None = None,
) -> bytes:
    """One framed (wire format v2) full-request message.

    The frame body is compact JSON; a trailing newline keeps the
    connection line-aligned for whatever message follows.
    """
    document: dict = {
        "v": FRAME_VERSION,
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "headers": dict(request.headers),
        "body": request.body,
    }
    if getattr(request, "stored", ()):
        document["stored"] = [list(pair) for pair in request.stored]
    if surfaces is not None:
        document["surfaces"] = format_surfaces(surfaces)
    body = json.dumps(document, separators=(",", ":")).encode()
    return FRAME_MAGIC + b" " + str(len(body)).encode() + b"\n" + body + b"\n"


def decode_framed_request(
    data: bytes,
    *,
    default_surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
) -> tuple[HttpRequest, tuple[InjectionSurface, ...]]:
    """Parse one frame body into a request plus its surface selection.

    A frame without an explicit ``surfaces`` list gets
    ``default_surfaces`` — the legacy query+form selection unless the
    server was configured otherwise (``repro serve --surfaces``), so a
    framed client that only upgraded its framing sees exactly the
    verdicts the line protocol gave it.

    Raises:
        ProtocolError: undecodable JSON, wrong version, wrong field
            types, or an unknown surface name.
    """
    try:
        document = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame body: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("frame body must be a JSON object")
    if document.get("v") != FRAME_VERSION:
        raise ProtocolError(
            f"unsupported frame version: {document.get('v')!r}"
        )
    headers = document.get("headers", {})
    stored_raw = document.get("stored", [])
    if not isinstance(headers, dict) or not isinstance(stored_raw, list):
        raise ProtocolError("bad frame field types")
    try:
        stored = tuple(
            (str(pair[0]), str(pair[1])) for pair in stored_raw
        )
    except (IndexError, TypeError) as exc:
        raise ProtocolError(f"bad stored pairs: {exc}") from exc
    request = HttpRequest(
        method=str(document.get("method", "GET")).upper(),
        host=str(document.get("host", "localhost")),
        path=str(document.get("path", "/")),
        query=str(document.get("query", "")),
        headers={
            str(k).lower(): str(v) for k, v in headers.items()
        },
        body=str(document.get("body", "")),
        stored=stored,
    )
    selection = document.get("surfaces")
    if selection is None:
        return request, default_surfaces
    try:
        return request, parse_surfaces(str(selection))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def encode_surface_detection(detection, version: int) -> bytes:
    """Response line for a framed request: legacy fields + attribution.

    *detection* is a :class:`repro.surfaces.SurfaceDetection`; the first
    four keys are exactly :func:`encode_detection`'s
    (:func:`response_fields`), so a client that only reads the legacy
    shape can ignore the rest.
    """
    attribution = detection.attribution()
    fields = response_fields(detection, version)
    fields["surfaces"] = attribution["surfaces"]
    fields["verdicts"] = attribution["verdicts"]
    return _response_line(fields)


def decode_response(line: bytes) -> dict:
    """Client side: parse one data-plane response line.

    Raises:
        ProtocolError: when the line is not a JSON object.
    """
    try:
        decoded = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad response line: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError(f"bad response line: {line!r}")
    return decoded


@dataclass
class HttpMessage:
    """A parsed one-shot HTTP request.

    Attributes:
        method: upper-cased verb.
        path: request target (no host).
        headers: lower-cased header names.
        body: decoded body text.
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""


async def read_http_message(
    reader: asyncio.StreamReader, first_line: bytes
) -> HttpMessage:
    """Read the remainder of an HTTP request whose request line was
    already consumed.

    Raises:
        ProtocolError: a first line that is not an HTTP request line,
            a malformed head, a head line past the stream limit or an
            oversized body.
    """
    if not is_http_request_line(first_line):
        raise ProtocolError(
            f"not an HTTP request line: {first_line[:80]!r}"
        )
    parts = first_line.decode("latin-1").split()
    method, path = parts[0], parts[1]
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:  # asyncio's stream limit overrun
            raise ProtocolError("header line too long") from exc
        if line in (b"\r\n", b"\n", b""):
            break
        text = line.decode("latin-1").rstrip("\r\n")
        if ":" not in text:
            raise ProtocolError(f"malformed header line: {text!r}")
        name, value = text.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ProtocolError(
            f"bad content-length: {length_text!r}"
        ) from exc
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large: {length} bytes")
    body = b""
    if length > 0:
        body = await reader.readexactly(length)
    return HttpMessage(
        method=method, path=path, headers=headers,
        body=body.decode("utf-8", errors="replace"),
    )


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


def http_response(status: int, payload: dict | str) -> bytes:
    """Serialize a one-shot HTTP response (connection closes after).

    A dict payload renders as JSON; a string payload is the ``/metrics``
    route's Prometheus exposition and is sent verbatim as
    :data:`~repro.obs.prometheus.CONTENT_TYPE`.
    """
    if isinstance(payload, str):
        body = payload.encode()
        media = CONTENT_TYPE
    else:
        body = json.dumps(payload, indent=1).encode()
        media = "application/json"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {media}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def reload_rejection(error: str, reason: str, version: int) -> dict:
    """The body of a refused ``POST /reload``: what went wrong, its
    machine-readable ``reason``, and the generation still serving."""
    return {
        "error": error, "reason": reason, "rejected": True,
        "version": version,
    }


async def serve_http(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    first_line: bytes,
    route: Callable[[HttpMessage], Awaitable[tuple[int, dict | str]]],
    telemetry: Telemetry,
) -> None:
    """Answer one HTTP exchange whose first line was already read.

    A malformed request gets 400 and counts one ``protocol_errors`` on
    ``telemetry``; a well-formed one is answered by ``route``.  The
    gateway and the fleet supervisor both serve their control plane
    with this.
    """
    import asyncio

    try:
        message = await read_http_message(reader, first_line)
    except (ProtocolError, asyncio.IncompleteReadError) as exc:
        await refuse_http(reader, writer, telemetry, str(exc))
        return
    status, payload = await route(message)
    writer.write(http_response(status, payload))
    await writer.drain()


async def refuse_http(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    telemetry: Telemetry,
    error: str,
) -> None:
    """Answer a malformed HTTP request with 400, count one
    ``protocol_errors`` on ``telemetry``, and :func:`discard_request`."""
    telemetry.increment("protocol_errors")
    writer.write(http_response(400, {"error": error}))
    await writer.drain()
    await discard_request(reader, writer)


async def discard_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close after an early answer, then drop the unread request.

    Closing a socket that still holds unread bytes makes the kernel
    reset the connection, and a reset can destroy the answer before the
    client reads it.  So the answer is followed by a FIN, and what the
    client still sends is read and dropped until it closes its side, up
    to ``DISCARD_MAX_BYTES`` or ``DISCARD_MAX_S``, whichever comes first.
    """
    import asyncio

    if writer.can_write_eof():
        writer.write_eof()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DISCARD_MAX_S
    left = DISCARD_MAX_BYTES
    try:
        while left > 0:
            chunk = await asyncio.wait_for(
                reader.read(left), max(0.0, deadline - loop.time())
            )
            if not chunk:
                return
            left -= len(chunk)
    except (asyncio.TimeoutError, ConnectionError):
        pass


async def run_until_signalled(server) -> None:
    """Wait for SIGTERM or SIGINT, then ``await server.stop()``: how the
    gateway's and the fleet's ``serve_forever`` both end."""
    import asyncio

    loop = asyncio.get_running_loop()
    signalled = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, signalled.set)
    try:
        await signalled.wait()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        await server.stop()
