"""Wire protocol of the detection gateway: line-delimited TCP plus HTTP.

One listening port speaks both dialects, disambiguated by the first
line of a connection:

- **Line protocol** (the data plane): every line the client sends is one
  detector-visible payload (exactly what
  :meth:`~repro.http.request.HttpRequest.flat_payload` yields — query
  string plus form body, which never contains a newline).  The gateway
  answers each line with one JSON object: ``{"alert": bool, "score":
  float, "matched": [sids], "version": n}``, or ``{"shed": true, ...}``
  when admission control refused the request.
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
and the tests all parse and emit identical bytes.  The gateway parses
each HTTP request with :class:`HttpRequestParser`, fed the bytes
received so far, and answers with :func:`http_response` and
:func:`reload_rejection`; the fleet supervisor's control port is the
gateway's own exchange.  Nothing here does I/O, so the codec loads no
event loop.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.http.request import HttpRequest
from repro.ids.rules import Detection
from repro.obs.prometheus import CONTENT_TYPE
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    format_surfaces,
    parse_surfaces,
)

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "HttpMessage",
    "HttpRequestParser",
    "ProtocolError",
    "decode_framed_request",
    "decode_response",
    "encode_detection",
    "encode_error",
    "encode_framed_request",
    "encode_line",
    "encode_shed",
    "encode_surface_detection",
    "frame_header_size",
    "http_response",
    "is_http_request_line",
    "reload_rejection",
    "response_fields",
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


class HttpRequestParser:
    """Parses one HTTP/1.x request from the bytes a client sent so far.

    The gateway feeds it a connection's buffer as bytes arrive, on its
    data port and on a fleet supervisor's control port alike.  Each
    head line is parsed once, as soon as it is
    complete, and the newline search resumes where the last one stopped:
    a head that arrives in many small reads costs time linear in its
    size, and a verdict never depends on how the bytes were split.
    """

    __slots__ = ("_message", "_start", "_scanned", "_size")

    def __init__(self) -> None:
        self._message = HttpMessage(method="", path="")
        # Where the next head line starts; where the newline search
        # resumes; the whole request's size once the head is in.
        self._start = 0
        self._scanned = 0
        self._size = -1

    def feed(
        self, data: bytes | bytearray, *, eof: bool = False
    ) -> HttpMessage | None:
        """Parse what ``data`` gained since the last call.

        Args:
            data: everything received on the connection so far; it only
                ever grows between calls.
            eof: the client has sent all it will; an unterminated last
                line ends the head.

        Returns:
            The request once it is complete, None while it is not.

        Raises:
            ProtocolError: a first line that is not an HTTP request
                line, a header without a colon, a head longer than
                ``MAX_LINE_BYTES``, a bad or oversized Content-Length,
                or a body cut short by ``eof``.
        """
        message = self._message
        while self._size < 0:
            newline = data.find(b"\n", self._scanned)
            end = newline + 1 if newline >= 0 else len(data)
            if end > MAX_LINE_BYTES:
                raise ProtocolError("request head too long")
            if newline < 0 and not eof:
                self._scanned = end
                return None
            line = bytes(data[self._start:end])
            self._start = self._scanned = end
            if not message.method:
                if not is_http_request_line(line):
                    raise ProtocolError(
                        f"not an HTTP request line: {line[:80]!r}"
                    )
                message.method, message.path = (
                    line.decode("latin-1").split()[:2]
                )
                continue
            if line in (b"\r\n", b"\n", b""):
                self._size = self._start + self._body_length()
                break
            text = line.decode("latin-1").rstrip("\r\n")
            if ":" not in text:
                raise ProtocolError(f"malformed header line: {text!r}")
            name, value = text.split(":", 1)
            message.headers[name.strip().lower()] = value.strip()
        if len(data) < self._size:
            if eof:
                raise ProtocolError(
                    f"body cut short: {len(data) - self._start} of "
                    f"{self._size - self._start} bytes"
                )
            return None
        message.body = bytes(data[self._start:self._size]).decode(
            "utf-8", errors="replace"
        )
        return message

    def _body_length(self) -> int:
        length_text = self._message.headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise ProtocolError(
                f"bad content-length: {length_text!r}"
            ) from exc
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"body too large: {length} bytes")
        return max(0, length)


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
