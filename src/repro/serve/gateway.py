"""The detection gateway: one ``selectors`` loop mounting any ``Detector``.

Structure (one listening port, both dialects of ``protocol.py``):

- One loop owns the listening sockets and every connection.  Each select
  round reads what is ready into each connection's buffer and parses
  the payload lines, ``REPRO-FRAME/2`` frames and one-shot HTTP requests
  in place.  Each request is admitted synchronously through the
  :class:`~repro.serve.admission.AdmissionController`, capturing the
  current :class:`~repro.serve.store.StoreVersion` **at admission time**
  — a hot-swap never changes which signature generation answers an
  already-admitted request.  The request joins one gateway-wide FIFO
  backlog together with the connection it came on.  Refusals and
  protocol errors wait in the same backlog, so every connection is
  answered strictly in request order and clients correlate by position
  exactly like the offline engine's per-index ``EngineRun`` vectors.
- After the round's reads, one drain step answers the whole backlog in
  order with ``detector.inspect`` (pure CPU, microseconds per payload —
  see Experiment 4 — so it runs on the loop; process fan-out stays in
  ``repro.parallel`` for offline batches), and each connection's answers
  go out in one write.

Backpressure reaches the edge without any protocol support: the loop
stops reading a connection while it has
``MAX_UNANSWERED_PER_CONNECTION`` unanswered requests, while answers it
could not send wait on a full send buffer, and under ``block`` while the
backlog is at its bound; the socket buffer then fills and the client
blocks.

``repro serve`` runs the loop on its main thread (:meth:`serve_forever`),
and a fleet shard runs it with its supervisor pipe on the same selector
(:meth:`add_reader`).  The fleet supervisor serves its control port on
the same loop and HTTP exchange, answering its own routes in place of
the gateway's (:mod:`repro.serve.supervisor`).  In process,
:meth:`~DetectionGateway.start` runs the same loop on a thread and
:meth:`~DetectionGateway.stop` drains it and joins that thread; clients
reach it over its port like any other.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs.prometheus import render_exposition
from repro.serve.admission import (
    AdmissionController,
    BackpressurePolicy,
    QueueClosed,
    Shed,
)
from repro.serve.protocol import (
    DISCARD_MAX_BYTES,
    DISCARD_MAX_S,
    MAX_LINE_BYTES,
    HttpMessage,
    HttpRequestParser,
    ProtocolError,
    decode_framed_request,
    encode_detection,
    encode_error,
    encode_shed,
    encode_surface_detection,
    frame_header_size,
    http_response,
    is_http_request_line,
    reload_rejection,
)
from repro.serve.store import SignatureStore, StoreError, StoreVersion
from repro.serve.telemetry import Telemetry, surfaces_section
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    ScoreRequest,
    score_request,
)

__all__ = [
    "DRAIN_TIMEOUT_S", "DetectionGateway", "GatewayConfig", "host_addresses",
]

#: Unanswered requests one connection may have in the backlog before the
#: loop stops reading it until the next drain.
MAX_UNANSWERED_PER_CONNECTION = 64

#: Seconds a stop may spend answering the backlog and sending the
#: answers before it closes what is left.
DRAIN_TIMEOUT_S = 10.0

#: Bytes one ``recv`` takes off a connection.
RECV_BYTES = 64 * 1024

#: Seconds the loop stops accepting after ``accept`` fails for want of
#: file descriptors or memory, rather than spin on a listener that
#: stays readable.
ACCEPT_RETRY_S = 1.0

#: A connection whose first line runs on past this many bytes cannot be
#: told apart as either dialect: it is answered ``line too long`` and
#: closed.  A later overlong line is dropped and the connection kept.
FIRST_LINE_LIMIT = 4 * MAX_LINE_BYTES

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

# Connection states: dialect not known yet; line protocol; one HTTP
# request; answered for good (send, half-close, drop the rest); closed.
_FIRST, _LINES, _HTTP, _CLOSING, _CLOSED = range(5)


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
    """One client connection: its buffers, its dialect and its place in
    the protocol."""

    __slots__ = (
        "sock", "state", "buffer", "scanned", "out", "unanswered", "eof",
        "events", "frame", "skipping", "first", "http", "deadline",
        "left",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.state = _FIRST
        self.buffer = bytearray()
        # The newline search resumes here, so a line arriving in many
        # small chunks is scanned once.
        self.scanned = 0
        # Answers the kernel has not taken yet.
        self.out = bytearray()
        self.unanswered = 0
        self.eof = False
        self.events = 0
        # A frame: the body size still awaited (int), then the body
        # awaiting its newline (bytes).
        self.frame: int | bytes | None = None
        # Bytes dropped so far of an overlong line, already answered.
        self.skipping: int | None = None
        self.first = True
        # The one HTTP request, parsed as its bytes arrive.
        self.http: HttpRequestParser | None = None
        # Half-closed: when to stop dropping what the client still sends,
        # and how many more bytes to drop.
        self.deadline = 0.0
        self.left = DISCARD_MAX_BYTES


def host_addresses(host: str, port: int) -> list[tuple[int, tuple]]:
    """``(family, address)`` for each address ``host`` resolves to, for
    binding ``port`` (an empty host: every interface)."""
    for family in (socket.AF_INET, socket.AF_INET6):
        try:
            socket.inet_pton(family, host)
        except OSError:
            continue
        # A numeric address needs no resolver: the first getaddrinfo
        # call maps about 0.7 MiB of resolver state.
        return [(family, (host, port))]
    return list(dict.fromkeys(
        (family, address)
        for family, _, _, _, address in socket.getaddrinfo(
            host or None, port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )
    ))


def _bind(host: str, port: int) -> list[socket.socket]:
    """A listening socket on each address ``host`` resolves to."""
    listeners: list[socket.socket] = []
    try:
        for family, address in host_addresses(host, port):
            listeners.append(socket.create_server(address, family=family))
    except BaseException:
        for listener in listeners:
            listener.close()
        raise
    return listeners


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
        self._selector = selectors.DefaultSelector()
        # Any thread (or a signal handler) wakes the loop by sending a
        # byte here.
        self._wake_in, self._wake_out = socket.socketpair()
        for end in (self._wake_in, self._wake_out):
            end.setblocking(False)
        self._selector.register(self._wake_in, _READ, self._on_wake)
        self._listeners: list[socket.socket] = []
        self._thread: threading.Thread | None = None
        self._closed = False
        # Open connections by file descriptor.
        self._connections: dict[int, _Connection] = {}
        # Entries ``(work, snapshot, conn, admitted_at)``: ``work`` is a
        # payload line (str) or a framed ScoreRequest, answered by the
        # ``snapshot`` generation; a refusal or protocol error has
        # ``snapshot`` None and its already-encoded answer as ``work``.
        self._backlog: list[tuple] = []
        # Connections that stopped for want of room (an ordered set).
        self._blocked: dict[_Connection, None] = {}
        # Connections with answers to send this round.
        self._dirty: dict[_Connection, None] = {}
        # Half-closed connections dropping what their client still sends.
        self._discarding: set[_Connection] = set()
        # When accepting resumes after a failed ``accept`` (0: accepting).
        self._accept_at = 0.0
        self._stop_requested = False
        self._stopping = False
        self._stop_deadline = 0.0
        self._drained = False
        self._finished = False

    # -- lifecycle -----------------------------------------------------

    def listen(self, *, sock: socket.socket | None = None) -> tuple[str, int]:
        """Bind (or adopt ``sock``), start accepting in the loop, and
        return the bound ``(host, port)``.

        ``config.host`` is bound on every address it resolves to, IPv4
        and IPv6 alike (an empty host: every interface); the first
        one's address is returned.

        Args:
            sock: an already-bound listening socket to serve on instead
                of binding ``config.host:port`` — how fleet shards share
                one port (their own ``SO_REUSEPORT`` socket, or a
                fork-inherited listener).
        """
        if self._listeners:
            raise RuntimeError("gateway already started")
        self._listeners = [sock] if sock is not None else _bind(
            self.config.host, self.config.port
        )
        for listener in self._listeners:
            listener.setblocking(False)
        self._accept_on()
        sockname = self._listeners[0].getsockname()
        return sockname[0], sockname[1]

    def add_reader(self, fileobj, callback: Callable[[], None]) -> None:
        """Call ``callback`` on the loop whenever ``fileobj`` is readable
        (a fleet shard's supervisor pipe)."""
        self._selector.register(fileobj, _READ, callback)

    def remove_reader(self, fileobj) -> None:
        """Stop watching ``fileobj``."""
        self._selector.unregister(fileobj)

    def descriptors(self) -> set[int]:
        """Every descriptor the loop holds: its selector and wake-up
        pair, its listeners, its connections and the readers added to
        it — what a process forked from it closes before anything else
        (a fleet shard forked by the supervisor)."""
        fds = {self._wake_in.fileno(), self._wake_out.fileno()}
        if hasattr(self._selector, "fileno"):  # epoll, kqueue, devpoll
            fds.add(self._selector.fileno())
        fds.update(key.fd for key in self._selector.get_map().values())
        fds.update(listener.fileno() for listener in self._listeners)
        fds.update(self._connections)
        return fds

    def request_stop(self) -> None:
        """Ask the loop to drain and stop; safe from any thread and from
        a signal handler."""
        self._stop_requested = True
        self._wake()

    def run(self) -> bool:
        """Run the loop on this thread until a requested stop finishes.

        The stop closes the listeners, answers what was admitted, sends
        the answers and closes every connection, all within one
        ``DRAIN_TIMEOUT_S`` deadline; what is left at the deadline is
        closed unanswered.  Returns True when every admitted request
        was answered, False when the deadline expired first.
        """
        if self._closed:
            raise RuntimeError("gateway already stopped")
        try:
            while not self._finished:
                self._round()
        finally:
            self._teardown()
        return self._drained

    def serve_forever(self) -> None:
        """Listen, then serve on this (main) thread until SIGTERM or
        SIGINT, and drain on the way out."""
        handlers = {
            signum: signal.signal(
                signum, lambda signum, frame: self.request_stop()
            )
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            print(self._banner(*self.listen()), flush=True)
            self.run()
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)

    def _banner(self, host: str, port: int) -> str:
        """The line :meth:`serve_forever` prints once it listens."""
        return (
            f"repro.serve: detector={self.store.current().detector.name} "
            f"on {host}:{port} (queue={self.config.queue_bound}, "
            f"policy={self.config.policy.value})"
        )

    def start(self, *, sock: socket.socket | None = None) -> tuple[str, int]:
        """:meth:`listen`, then run the loop on a thread; returns the
        bound ``(host, port)``."""
        address = self.listen(sock=sock)
        self._thread = threading.Thread(
            target=self.run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        return address

    def stop(self) -> bool:
        """Drain and stop the loop thread; returns what :meth:`run`
        returns.  A gateway never started has nothing to drain: it is
        closed, and True returned."""
        self.request_stop()
        if self._thread is None:
            self.admission.close()
            self._teardown()
            return True
        self._thread.join()
        return self._drained

    # -- the loop ------------------------------------------------------

    def _round(self) -> None:
        """One select round: serve what is ready, then drain the backlog
        once and send each connection's answers in one write."""
        for key, events in self._selector.select(self._timeout()):
            if isinstance(key.data, _Connection):
                if events & _WRITE:
                    self._send(key.data)
                if events & _READ and key.data.state != _CLOSED:
                    self._receive(key.data)
            else:
                key.data()
        if self._stop_requested and not self._stopping:
            self._begin_stop()
        if self._backlog:
            self._drain()
        dirty, self._dirty = self._dirty, {}
        for conn in dirty:
            if conn.state != _CLOSED:
                self._send(conn)
        for conn in list(self._blocked):
            if self._has_room(conn):
                del self._blocked[conn]
                self._serve(conn)
                self._watch(conn)
        self._expire()

    def _timeout(self) -> float | None:
        if self._backlog:
            return 0.0
        deadlines = [conn.deadline for conn in self._discarding]
        if self._accept_at:
            deadlines.append(self._accept_at)
        if self._stopping:
            deadlines.append(self._stop_deadline)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _expire(self) -> None:
        now = time.monotonic()
        for conn in [c for c in self._discarding if c.deadline <= now]:
            self._close(conn)
        if self._accept_at and now >= self._accept_at and not self._stopping:
            self._accept_at = 0.0
            self._accept_on()
        if not self._stopping:
            return
        if not self.admission.depth:
            # Every admitted request is answered: close each connection
            # once its answers are sent.
            self._drained = True
            for conn in list(self._connections.values()):
                if not conn.out:
                    self._close(conn)
            self._finished = not self._connections
        if now >= self._stop_deadline:
            self._finished = True

    def _begin_stop(self) -> None:
        self._stopping = True
        self._stop_deadline = time.monotonic() + DRAIN_TIMEOUT_S
        if not self._accept_at:
            self._accept_off()
        for listener in self._listeners:
            listener.close()
        self.admission.close()

    def _teardown(self) -> None:
        self._closed = True
        for conn in list(self._connections.values()):
            self._close(conn)
        for listener in self._listeners:
            listener.close()
        self._selector.close()
        self._wake_in.close()
        self._wake_out.close()

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except OSError:  # already pending, or the loop is gone
            pass

    def _on_wake(self) -> None:
        try:
            while self._wake_in.recv(4096):
                pass
        except OSError:
            pass

    # -- connections ---------------------------------------------------

    def _accept_on(self) -> None:
        for listener in self._listeners:
            self._selector.register(
                listener, _READ, lambda sock=listener: self._accept(sock)
            )

    def _accept_off(self) -> None:
        for listener in self._listeners:
            self._selector.unregister(listener)

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:  # reset before it was taken
                continue
            except OSError:  # out of file descriptors, say
                self._accept_off()
                self._accept_at = time.monotonic() + ACCEPT_RETRY_S
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._connections[sock.fileno()] = conn
            self.telemetry.increment("connections")
            self._watch(conn)

    def _receive(self, conn: _Connection) -> None:
        if conn.state == _CLOSING and not conn.deadline:
            return  # its answers are not sent yet
        try:
            data = conn.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if conn.state == _CLOSING:
            # Half-closed after its answer: drop what the client sends.
            conn.left -= len(data)
            if not data or conn.left <= 0:
                self._close(conn)
            return
        if data:
            conn.buffer += data
        else:
            conn.eof = True
        self._serve(conn)
        self._watch(conn)

    def _send(self, conn: _Connection) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(conn)
                return
            del conn.out[:sent]
        self._finish(conn)

    def _finish(self, conn: _Connection) -> None:
        """Half-close a hung-up connection once its answers are sent,
        then drop what its client still sends within the discard
        limits; watch the connection for what it waits on."""
        if (
            conn.state == _CLOSING and not conn.deadline
            and not conn.out and not conn.unanswered
        ):
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                conn.eof = True
            if conn.eof:
                self._close(conn)
                return
            conn.deadline = time.monotonic() + DISCARD_MAX_S
            self._discarding.add(conn)
        self._watch(conn)

    def _hang_up(self, conn: _Connection) -> None:
        """No more requests from ``conn``: answer what it sent, then
        half-close it (:meth:`_finish`)."""
        conn.state = _CLOSING
        conn.buffer.clear()
        self._blocked.pop(conn, None)
        self._finish(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.state == _CLOSED:
            return
        if conn.events:
            self._selector.unregister(conn.sock)
        del self._connections[conn.sock.fileno()]
        conn.sock.close()
        conn.state = _CLOSED
        conn.out.clear()
        self._blocked.pop(conn, None)
        self._discarding.discard(conn)

    def _has_room(self, conn: _Connection) -> bool:
        """May ``conn`` add to the backlog now?"""
        return not (
            conn.out
            or self.admission.must_wait
            or conn.unanswered >= MAX_UNANSWERED_PER_CONNECTION
        )

    def _watch(self, conn: _Connection) -> None:
        """Register ``conn`` for what it waits on: writable while answers
        wait to be sent, readable while it may send more."""
        if conn.state == _CLOSED:
            return
        events = _WRITE if conn.out else 0
        if conn.state == _CLOSING:
            if conn.deadline:
                events |= _READ
        elif not conn.eof and not (conn.state == _HTTP and conn.unanswered):
            if conn in self._blocked:
                pass
            elif self._has_room(conn):
                events |= _READ
            else:
                self._blocked[conn] = None
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    # -- data plane ----------------------------------------------------

    def _serve(self, conn: _Connection) -> None:
        """Parse and admit what ``conn``'s buffer holds."""
        if conn.state == _FIRST:
            self._classify(conn)
        if conn.state == _LINES:
            self._serve_lines(conn)
        elif conn.state == _HTTP:
            self._serve_http(conn)

    def _classify(self, conn: _Connection) -> None:
        """Tell the dialect from the connection's first line."""
        buffer = conn.buffer
        newline = buffer.find(b"\n", conn.scanned)
        if newline >= 0:
            first = bytes(buffer[:newline + 1])
        elif conn.eof:
            if not buffer:
                self._hang_up(conn)
                return
            first = bytes(buffer)
        elif len(buffer) > MAX_LINE_BYTES:
            conn.state = _LINES  # overlong: the line protocol refuses it
            return
        else:
            conn.scanned = len(buffer)
            return
        if is_http_request_line(first):
            conn.state, conn.http = _HTTP, HttpRequestParser()
        else:
            conn.state = _LINES

    def _serve_lines(self, conn: _Connection) -> None:
        """The line protocol: admit each complete payload line or frame
        in ``conn``'s buffer, in order, while the connection has room."""
        buffer = conn.buffer
        pos = 0
        while True:
            if not self._has_room(conn):
                self._blocked[conn] = None
                break
            if type(conn.frame) is int:
                if len(buffer) - pos < conn.frame:
                    if conn.eof:  # a frame body cut short: no answer
                        self._hang_up(conn)
                        return
                    break  # the rest of the frame body is still to come
                end = pos + conn.frame
                conn.frame, pos = bytes(buffer[pos:end]), end
                conn.scanned = pos
                continue
            newline = buffer.find(b"\n", max(pos, conn.scanned))
            end = newline + 1 if newline >= 0 else len(buffer)
            if (
                conn.skipping is None and newline < 0
                and end - pos > MAX_LINE_BYTES
            ):
                # An overlong line gets one answer, then is dropped
                # through its newline with nothing of it kept.
                self._refuse(conn, (
                    "frame body not newline-terminated"
                    if conn.frame is not None else "line too long"
                ))
                conn.frame = None
                conn.skipping = 0
            if conn.skipping is not None:
                conn.skipping += end - pos
                pos = end
                if conn.first and conn.skipping > FIRST_LINE_LIMIT:
                    self._hang_up(conn)
                    return
                if newline >= 0:
                    conn.skipping = None
                    conn.first = False
                    continue
            elif newline >= 0 or (
                conn.eof and (pos < end or conn.frame is not None)
            ):
                # A line; at the end of the stream the last one may be
                # unterminated, and the end stands in for the newline
                # after a frame body.
                line, pos = bytes(buffer[pos:end]), end
                conn.first = False
                self._serve_line(conn, line)
                continue
            if conn.eof:
                self._hang_up(conn)
                return
            conn.scanned = len(buffer)
            break
        del buffer[:pos]
        conn.scanned = max(0, conn.scanned - pos)

    def _serve_line(self, conn: _Connection, line: bytes) -> None:
        """Admit one complete line: a payload, a frame header, or the
        newline ending a frame body."""
        if conn.frame is not None:
            # The frame body is followed by a newline that keeps the
            # connection line-aligned.  Anything else before it gets
            # one error.
            body, conn.frame = conn.frame, None
            if line not in (b"\n", b"\r\n", b""):
                self._refuse(conn, "frame body not newline-terminated")
                return
            try:
                request, surfaces = decode_framed_request(
                    body, default_surfaces=self.config.surfaces
                )
            except ProtocolError as exc:
                self._refuse(conn, str(exc))
                return
            self.telemetry.increment("framed")
            self._submit(
                ScoreRequest(request=request, surfaces=surfaces), conn
            )
            return
        if len(line) > MAX_LINE_BYTES:
            self._refuse(conn, "line too long")
            return
        try:
            conn.frame = frame_header_size(line)
        except ProtocolError as exc:
            # A malformed frame header: the client meant to frame, so
            # treating the line as a payload would be wrong; answer the
            # error and resync at the next line.
            self._refuse(conn, str(exc))
            return
        if conn.frame is None:
            # Every line is one payload — including the empty line: a
            # request with no query string is still a request the
            # offline engine would score, and skipping it would desync
            # response ordering.
            self._submit(
                line.rstrip(b"\r\n").decode("utf-8", errors="replace"), conn
            )

    def _submit(self, work: str | ScoreRequest, conn: _Connection) -> None:
        """Admit ``work`` into the backlog, or queue its refusal there."""
        try:
            self.admission.admit()
        except Shed as exc:
            self._push(encode_shed(str(exc)), None, conn)
        except QueueClosed as exc:
            self._push(encode_error(str(exc)), None, conn)
        else:
            self._push(work, self.store.current(), conn)

    def _refuse(self, conn: _Connection, reason: str) -> None:
        """Queue a protocol-error answer in request order."""
        self.telemetry.increment("protocol_errors")
        self._push(encode_error(reason), None, conn)

    def _push(
        self,
        work: str | ScoreRequest | bytes,
        snapshot: StoreVersion | None,
        conn: _Connection,
    ) -> None:
        self._backlog.append((work, snapshot, conn, time.perf_counter()))
        conn.unanswered += 1

    def _drain(self) -> None:
        """The drain step: answer the whole backlog in order and queue
        each connection's answers for this round's write."""
        backlog, self._backlog = self._backlog, []
        admitted = 0
        for work, snapshot, conn, admitted_at in backlog:
            if snapshot is None:
                answer = work
            else:
                admitted += 1
                answer = self._answer(work, snapshot, admitted_at)
            self._deliver(conn, answer)
        self.admission.release(admitted)

    def _deliver(self, conn: _Connection, answer: bytes) -> None:
        conn.unanswered -= 1
        if conn.state == _CLOSED:
            return
        if conn.state == _HTTP:  # POST /inspect
            result = json.loads(answer)
            status = 503 if result.get("shed") or "error" in result else 200
            conn.out += http_response(status, result)
            self._hang_up(conn)
        else:
            conn.out += answer
        self._dirty[conn] = None

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

    # -- control plane -------------------------------------------------

    def _serve_http(self, conn: _Connection) -> None:
        """One-shot HTTP: parse the request once it is in, answer it, and
        hang up."""
        if conn.unanswered:
            return
        try:
            message = conn.http.feed(conn.buffer, eof=conn.eof)
        except ProtocolError as exc:
            self.telemetry.increment("protocol_errors")
            self._answer_http(conn, 400, {"error": str(exc)})
            return
        if message is not None:
            self._respond(conn, message)

    def _respond(self, conn: _Connection, message: HttpMessage) -> None:
        """Answer one complete request: ``POST /inspect`` through
        admission (the drain step answers it), anything else from
        :meth:`_route`."""
        if message.path == "/inspect" and message.method == "POST":
            if not self._has_room(conn):
                self._blocked[conn] = None
                return
            conn.buffer.clear()
            self._submit(message.body, conn)
            return
        self._answer_http(conn, *self._route(message))

    def _answer_http(
        self, conn: _Connection, status: int, payload: dict | str
    ) -> None:
        conn.out += http_response(status, payload)
        self._hang_up(conn)

    def _route(self, message: HttpMessage) -> tuple[int, dict | str]:
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
        if path in ("/healthz", "/stats", "/metrics", "/reload", "/inspect"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route {path}"}
