"""The detection gateway: an asyncio server mounting any ``Detector``.

Structure (one listening port, both dialects of ``protocol.py``):

- A reader per connection parses each payload line or frame and admits
  it synchronously through the
  :class:`~repro.serve.admission.AdmissionController`, capturing the
  current :class:`~repro.serve.store.StoreVersion` **at admission time**
  — a concurrent hot-swap never changes which signature generation
  answers an already-admitted request.  The request joins one
  gateway-wide FIFO backlog together with its sink: the connection it
  came on, or a future for an in-process caller.  Refusals and protocol
  errors wait in the same backlog, so every connection is answered
  strictly in request order and clients correlate by position exactly
  like the offline engine's per-index ``EngineRun`` vectors.
- One drain step, scheduled when the backlog goes from empty to
  non-empty, answers the whole backlog in order with
  ``detector.inspect`` (pure CPU, microseconds per payload — see
  Experiment 4 — so it runs on the event loop; process fan-out stays in
  ``repro.parallel`` for offline batches) and writes each connection's
  answers as one buffer.

Backpressure reaches the edge without any protocol support: a reader
stops reading until the next drain while its connection has
``MAX_UNANSWERED_PER_CONNECTION`` unanswered requests, while its peer
leaves the send buffer full, and under ``block`` while the backlog is at
its bound; the socket buffer then fills and the client blocks.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass

from repro.serve.admission import (
    AdmissionController,
    BackpressurePolicy,
    QueueClosed,
    Shed,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_framed_request,
    discard_request,
    encode_detection,
    encode_error,
    encode_shed,
    encode_surface_detection,
    frame_header_size,
    is_http_request_line,
    reload_rejection,
    run_until_signalled,
    serve_http,
)
from repro.obs.prometheus import render_exposition
from repro.serve.store import SignatureStore, StoreError, StoreVersion
from repro.serve.telemetry import Telemetry, surfaces_section
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    ScoreRequest,
    score_request,
)

__all__ = ["DRAIN_TIMEOUT_S", "DetectionGateway", "GatewayConfig"]

#: Unanswered requests one connection may have in the backlog before its
#: reader waits for the next drain.
MAX_UNANSWERED_PER_CONNECTION = 64

#: Seconds :meth:`DetectionGateway.stop` may spend answering the backlog
#: and closing connections before it cancels what is left.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class GatewayConfig:
    """Tunables of one gateway instance — and of every shard of a fleet,
    which carries one of these (:class:`~repro.serve.supervisor.FleetConfig`).

    Attributes:
        host: bind address.
        port: bind port (0 picks an ephemeral port, reported by ``start``).
        queue_bound: backlog capacity (admitted, unanswered requests).
        policy: full-backlog behaviour (``block`` or ``shed``; a
            string is normalized to :class:`BackpressurePolicy`).
        allow_reload: accept ``POST /reload`` on this gateway's own
            control plane.  Fleet shards set this False — their reloads
            arrive only through the supervisor's two-phase protocol, so
            a client reaching one shard's data port can never split the
            fleet across generations.
        surfaces: default injection-surface selection for framed
            requests that do not name one (``repro serve --surfaces``);
            frames carrying an explicit ``surfaces`` field always win.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_bound: int = 1024
    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    allow_reload: bool = True
    surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES

    def __post_init__(self) -> None:
        self.policy = BackpressurePolicy(self.policy)


class _Connection:
    """A line-protocol connection as a backlog sink."""

    __slots__ = ("writer", "unanswered")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.unanswered = 0


# A backlog entry is ``(work, snapshot, sink, admitted_at)``.  ``work``
# is a payload line (str) or a framed ScoreRequest, answered by the
# ``snapshot`` generation; a refusal or protocol error has ``snapshot``
# None and its already-encoded answer as ``work``.  ``sink`` is a
# _Connection or an in-process caller's future.
_Sink = _Connection | asyncio.Future


class DetectionGateway:
    """Serves a :class:`SignatureStore` over TCP/HTTP with admission
    control and telemetry.

    Args:
        store: versioned detector holder (hot-swapped via ``POST /reload``).
        config: server tunables.
        telemetry: metrics sink; created (and shared with the store, if
            the store has none) when omitted.
    """

    def __init__(
        self,
        store: SignatureStore,
        config: GatewayConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.store = store
        self.config = config or GatewayConfig()
        self.telemetry = telemetry or Telemetry()
        if store.telemetry is None:
            store.telemetry = self.telemetry
        self.admission = AdmissionController(
            queue_bound=self.config.queue_bound,
            policy=self.config.policy,
            telemetry=self.telemetry,
        )
        # Live-state gauges: evaluated at scrape time, so /metrics shows
        # the instantaneous queue depth and deployed signature generation
        # without the data plane pushing updates anywhere.
        registry = self.telemetry.registry
        registry.gauge(
            "repro_queue_depth",
            "Admission queue depth at scrape time.",
            function=lambda: float(self.admission.depth),
        )
        registry.gauge(
            "repro_store_version",
            "Deployed signature store generation.",
            function=lambda: float(self.store.version),
        )
        self._server: asyncio.base_events.Server | None = None
        # Each open connection's writer and the task handling it.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._backlog: list[tuple] = []
        # Pulsed (set, then cleared) by every drain step.
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(
        self, *, sock: socket.socket | None = None
    ) -> tuple[str, int]:
        """Bind and return the bound ``(host, port)``.

        Args:
            sock: an already-bound listening socket to serve on instead
                of binding ``config.host:port`` — how fleet shards share
                one port (their own ``SO_REUSEPORT`` socket, or a
                fork-inherited listener).
        """
        if self._server is not None:
            raise RuntimeError("gateway already started")
        # Stream limit above MAX_LINE_BYTES so our own oversized-line
        # handling (answer an error, keep the connection) gets to run
        # before asyncio's reader gives up.
        if sock is not None:
            self._server = await asyncio.start_server(
                self._accept, sock=sock, limit=4 * MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._accept, self.config.host, self.config.port,
                limit=4 * MAX_LINE_BYTES,
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> bool:
        """Graceful drain: stop accepting, answer what was admitted, then
        close every connection and wait for its handler.

        The whole drain shares one ``DRAIN_TIMEOUT_S`` deadline; a
        handler still blocked at the deadline (say, on a peer that never
        reads) has its connection aborted and is cancelled.  Returns
        True when every admitted request was answered, False when the
        deadline expired first.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT_S
        if self._server is not None:
            self._server.close()
        self.admission.close()
        drained = True
        try:
            await asyncio.wait_for(
                self._admitted_answered(), DRAIN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            drained = False
        for writer in self._connections:
            writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections.values()),
                timeout=max(0.0, deadline - loop.time()),
            )
        late = [
            (writer, task) for writer, task in self._connections.items()
            if not task.done()
        ]
        for writer, task in late:
            writer.transport.abort()
            task.cancel()
        await asyncio.gather(
            *(task for _, task in late), return_exceptions=True
        )
        if self._server is not None:
            await self._server.wait_closed()
        return drained

    async def _admitted_answered(self) -> None:
        while self.admission.depth:
            await self._drained.wait()

    async def serve_forever(self) -> None:
        """Start, then serve until SIGTERM/SIGINT and drain on the way
        out."""
        host, port = await self.start()
        detector = self.store.current().detector.name
        print(
            f"repro.serve: detector={detector} on {host}:{port} "
            f"(queue={self.config.queue_bound}, "
            f"policy={self.config.policy.value})"
        )
        await run_until_signalled(self)

    # -- data plane ----------------------------------------------------

    async def inspect(self, payload: str) -> dict:
        """In-process client: run ``payload`` through the full admission
        path and return the decoded response object."""
        return json.loads(await self._inspect(payload))

    async def inspect_request(
        self,
        request,
        surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    ) -> dict:
        """In-process framed-mode client: full admission path, decoded
        surface-attributed response."""
        return json.loads(await self._inspect(
            ScoreRequest(request=request, surfaces=surfaces)
        ))

    async def _inspect(self, work: str | ScoreRequest) -> bytes:
        """Submit ``work`` with a future as its sink; await the answer."""
        future = asyncio.get_running_loop().create_future()
        await self._submit(work, future)
        return await future

    async def _room(self, sink: _Sink) -> None:
        """Wait until ``sink`` may add to the backlog.

        A connection first waits for its peer to take its answers off the
        send buffer; then every sink waits for the next drain while the
        ``block`` backlog is at its bound, and a connection also while it
        has ``MAX_UNANSWERED_PER_CONNECTION`` unanswered requests.
        """
        connection = isinstance(sink, _Connection)
        if connection:
            await sink.writer.drain()
        while self.admission.must_wait or (
            connection and sink.unanswered >= MAX_UNANSWERED_PER_CONNECTION
        ):
            await self._drained.wait()

    async def _submit(self, work: str | ScoreRequest, sink: _Sink) -> None:
        """Admit ``work`` into the backlog, or queue its refusal there."""
        await self._room(sink)
        try:
            self.admission.admit()
        except Shed as exc:
            self._push(encode_shed(str(exc)), None, sink)
        except QueueClosed as exc:
            self._push(encode_error(str(exc)), None, sink)
        else:
            self._push(work, self.store.current(), sink)

    async def _refuse(self, conn: _Connection, reason: str) -> None:
        """Queue a protocol-error answer in request order."""
        self.telemetry.increment("protocol_errors")
        await self._room(conn)
        self._push(encode_error(reason), None, conn)

    def _push(
        self,
        work: str | ScoreRequest | bytes,
        snapshot: StoreVersion | None,
        sink: _Sink,
    ) -> None:
        if not self._backlog:
            asyncio.get_running_loop().call_soon(self._drain)
        self._backlog.append((work, snapshot, sink, time.perf_counter()))
        if isinstance(sink, _Connection):
            sink.unanswered += 1

    def _drain(self) -> None:
        """The drain step: answer the whole backlog in order, write each
        connection's answers as one buffer, and wake every waiter."""
        backlog, self._backlog = self._backlog, []
        writes: dict[_Connection, list[bytes]] = {}
        admitted = 0
        for work, snapshot, sink, admitted_at in backlog:
            if snapshot is None:
                answer = work
            else:
                admitted += 1
                answer = self._answer(work, snapshot, admitted_at)
            if isinstance(sink, _Connection):
                sink.unanswered -= 1
                writes.setdefault(sink, []).append(answer)
            elif not sink.done():  # the in-process caller went away
                sink.set_result(answer)
        self.admission.release(admitted)
        for conn, answers in writes.items():
            if not conn.writer.is_closing():
                conn.writer.write(b"".join(answers))
        self._drained.set()
        self._drained.clear()

    def _answer(
        self,
        work: str | ScoreRequest,
        snapshot: StoreVersion,
        admitted_at: float,
    ) -> bytes:
        """Inspect one admitted request with its admission generation."""
        started = time.perf_counter()
        try:
            if isinstance(work, ScoreRequest):
                detection = score_request(
                    snapshot.detector.inspect, work.request, work.surfaces
                )
            else:
                detection = snapshot.detector.inspect(work)
        except Exception as exc:  # detector bug: answer, don't die
            self.telemetry.increment("errors")
            return encode_error(f"detector error: {exc}")
        finished = time.perf_counter()
        self.telemetry.record_inspection(detection.alert, finished - started)
        self.telemetry.observe("latency", finished - admitted_at)
        if isinstance(work, ScoreRequest):
            self.telemetry.record_surfaces(detection)
            return encode_surface_detection(detection, snapshot.version)
        return encode_detection(detection, snapshot.version)

    # -- connection handling -------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Start a connection's handler as a task the gateway holds until
        it ends, so :meth:`stop` can wait for it or cancel it."""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._connections[writer] = task
        task.add_done_callback(lambda _: self._connections.pop(writer))

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.telemetry.increment("connections")
        try:
            try:
                first = await reader.readline()
            except ValueError:  # line exceeded even the stream limit
                self.telemetry.increment("protocol_errors")
                writer.write(encode_error("line too long"))
                await writer.drain()
                await discard_request(reader, writer)
                return
            if not first:
                return
            if is_http_request_line(first):
                await serve_http(
                    reader, writer, first, self._route, self.telemetry
                )
            else:
                await self._serve_lines(reader, writer, first)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_lines(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes,
    ) -> None:
        """The line protocol: one payload per line, answers in order."""
        conn = _Connection(writer)
        line = first
        try:
            while line:
                try:
                    frame_size = frame_header_size(line)
                except ProtocolError as exc:
                    # A malformed frame header: the client meant to frame,
                    # so treating the line as a payload would be wrong;
                    # answer the error and resync at next line.
                    await self._refuse(conn, str(exc))
                else:
                    if frame_size is not None:
                        await self._serve_frame(reader, conn, frame_size)
                    elif len(line) > MAX_LINE_BYTES:
                        await self._refuse(conn, "line too long")
                    else:
                        # Every line is one payload — including the empty
                        # line: a request with no query string is still a
                        # request the offline engine would score, and
                        # skipping it would desync response ordering.
                        payload = line.rstrip(b"\r\n").decode(
                            "utf-8", errors="replace"
                        )
                        await self._submit(payload, conn)
                line = await self._next_line(reader, conn)
        finally:
            # Answer what the connection sent, even when it broke
            # off mid-frame.
            while conn.unanswered:
                await self._drained.wait()

    async def _next_line(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> bytes:
        """The connection's next line, or b"" at end of stream.

        A line longer than the stream limit is answered ``line too
        long`` in order and dropped through its newline, so it gets one
        answer however long it is.
        """
        while (line := await _read_line(reader)) is None:
            await self._refuse(conn, "line too long")
        return line

    async def _serve_frame(
        self,
        reader: asyncio.StreamReader,
        conn: _Connection,
        frame_size: int,
    ) -> None:
        """Read and admit one framed full-request message.

        The header line is already consumed; this reads exactly the
        declared body bytes plus the line-aligning newline, decodes the
        request, and admits it as a surface-aware request.
        """
        body = await reader.readexactly(frame_size)
        # The frame body is followed by a newline that keeps the
        # connection line-aligned; absorb it (tolerating EOF).  Anything
        # else before the newline, however long, gets one error.
        trailer = await _read_line(reader)
        if trailer not in (b"\n", b"\r\n", b""):
            await self._refuse(conn, "frame body not newline-terminated")
            return
        try:
            request, surfaces = decode_framed_request(
                body, default_surfaces=self.config.surfaces
            )
        except ProtocolError as exc:
            await self._refuse(conn, str(exc))
            return
        self.telemetry.increment("framed")
        await self._submit(
            ScoreRequest(request=request, surfaces=surfaces), conn
        )

    # -- control plane -------------------------------------------------

    async def _route(self, message) -> tuple[int, dict | str]:
        method, path = message.method, message.path
        if path == "/healthz" and method == "GET":
            current = self.store.current()
            return 200, {
                "status": "draining" if self.admission.closed else "ok",
                "detector": current.detector.name,
                "version": current.version,
                "queue_depth": self.admission.depth,
            }
        if path == "/stats" and method == "GET":
            current = self.store.current()
            return 200, {
                "store": {
                    "detector": current.detector.name,
                    "version": current.version,
                    "source": current.source,
                },
                "queue_depth": self.admission.depth,
                "surfaces": surfaces_section(
                    self.telemetry.raw_state()["counters"]
                ),
                **self.telemetry.snapshot(),
            }
        if path == "/reload" and method == "POST":
            if not self.config.allow_reload:
                return 403, {
                    "error": "reload is fleet-managed on this shard; "
                             "POST /reload to the supervisor control "
                             "plane instead",
                    "version": self.store.version,
                }
            try:
                text, source = self.store.reload_text(message.body)
                published = self.store.swap_json(text, source=source)
            except StoreError as exc:
                return 400, reload_rejection(
                    str(exc), exc.reason, self.store.version
                )
            return 200, {
                "version": published.version,
                "source": published.source,
                "detector": published.detector.name,
            }
        if path == "/metrics" and method == "GET":
            return 200, render_exposition(self.telemetry.registry)
        if path == "/inspect" and method == "POST":
            result = await self.inspect(message.body)
            if result.get("shed") or "error" in result:
                return 503, result
            return 200, result
        if path in ("/healthz", "/stats", "/metrics", "/reload", "/inspect"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route {path}"}


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line, b"" at end of stream, or None for a line longer
    than the stream limit, which is dropped through its newline."""
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            # asyncio leaves the scanned bytes buffered: drop them, and
            # the rest of the line up to its newline after them.
            await reader.readexactly(exc.consumed)
            overlong = True
            continue
        return None if overlong else line

