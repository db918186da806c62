"""A live ``repro serve`` process and the load generator that feeds it.

The generator is this one process with at most ``nproc`` TCP
connections.  Every request is pre-encoded before a phase starts, so a
phase does nothing but move bytes and record clock readings:

- the open loop sends on a seeded Poisson schedule; on each wake-up it
  sends everything that is due, and every request is timed from its
  *scheduled* send time, so a stall is charged to the requests queued
  behind it and the generator's own lateness is recorded separately.
  It polls without sleeping: waking a sleeping process costs this kind
  of virtual machine about half a millisecond, which would otherwise be
  charged to the server as latency;
- the closed loop keeps between half a window and a window of requests
  in flight on each connection, so the server's admission queue holds
  more than one request at a time.  It refills half a window at a time:
  the server then always reads requests in the same batches, however
  fast this process happens to run next to it.  It stops sending after
  a given time or a given number of requests, whichever comes first.

Responses are only counted while a phase runs (one per newline, in send
order per connection); they are decoded and refereed after it.
"""

from __future__ import annotations

import os
import re
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostinfo import task_cpu_seconds, vm_hwm_mib

from repro.obs.prometheus import parse_exposition

_STARTUP = re.compile(rb" on ([0-9.]+):([0-9]+) ")
_STARTUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 15.0


class ServerError(RuntimeError):
    """The server process could not be started or answered nothing."""


class ServerProcess:
    """One ``python -m repro serve`` child process.

    Args:
        root: checkout root (its ``src`` goes on ``PYTHONPATH``).
        signatures: signature JSON file the server loads.
        surfaces: ``--surfaces`` selection spec.
        workdir: working directory and home of the stderr log.
    """

    def __init__(
        self, root: Path, signatures: Path, surfaces: str, workdir: Path
    ) -> None:
        self.root = root
        self.signatures = signatures
        self.surfaces = surfaces
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        log = open(self.workdir / "serve.stderr", "ab")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "-s", str(self.signatures),
                    "--port", "0",
                    "--surfaces", self.surfaces,
                ],
                cwd=self.workdir,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], _STARTUP_TIMEOUT_S
        )
        line = self.proc.stdout.readline() if ready else b""
        match = _STARTUP.search(line)
        if match is None:
            self.stop()
            raise ServerError(f"server did not start: {line!r}")
        self.port = int(match.group(2))

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return task_cpu_seconds(self.pid)

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.pid)

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def metrics(self) -> dict[str, float]:
        """One ``GET /metrics`` scrape: unlabeled series name → value."""
        with self.connect() as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            raise ServerError(f"/metrics answered {head[:40]!r}")
        families = parse_exposition(body.decode())
        return {
            sample.name: sample.value
            for samples in families.values()
            for sample in samples
            if not sample.labels
        }

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after 10 s; always reaps the child."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None


def ask(sock: socket.socket, wire: bytes) -> bytes:
    """Send one request and read its one-line answer (blocking)."""
    sock.sendall(wire)
    buffered = b""
    while not buffered.endswith(b"\n"):
        data = sock.recv(1 << 16)
        if not data:
            raise ServerError("connection closed before an answer")
        buffered += data
    return buffered


class _Conn:
    """Client side of one connection: buffers plus send-order bookkeeping."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.awaiting: deque[int] = deque()
        self.sent_order: list[int] = []
        self.closed = False
        self.watching_write = False

    def queue(self, slot: int, wire: bytes) -> None:
        """Buffer one request; :meth:`flush` hands it to the kernel."""
        self.out += wire
        self.awaiting.append(slot)
        self.sent_order.append(slot)

    def flush(self) -> None:
        if not self.out:
            return
        try:
            sent = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            return
        del self.out[:sent]


@dataclass
class Phase:
    """Raw record of one phase; ``slot`` indexes every request sent.

    Attributes:
        pool_index: pool position of each request.
        scheduled: scheduled send offset (s); the actual send time for
            the closed loop, which has no schedule.
        sent: actual send offset (s).
        arrival: response arrival offset (s), NaN when none came.
        responses: response line per request (``b""`` when none came).
        t0: ``perf_counter`` reading of offset 0.
        wall_s: phase wall time, first send to last answer.
        server_cpu_s: server CPU seconds over the phase.
        generator_busy_s: time this process spent sending and reading
            (its polling between events excluded).
        metrics_before / metrics_after: ``/metrics`` scrapes around it.
    """

    pool_index: np.ndarray
    scheduled: np.ndarray
    sent: np.ndarray
    arrival: np.ndarray
    responses: list[bytes] = field(default_factory=list)
    t0: float = 0.0
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    generator_busy_s: float = 0.0
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.pool_index)

    @property
    def answered(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.arrival)))


class Generator:
    """Drives one server over ``connections`` TCP connections."""

    def __init__(self, server: ServerProcess, connections: int) -> None:
        self.server = server
        self.connections = connections

    def _open(self) -> tuple[list[_Conn], selectors.BaseSelector]:
        conns = [_Conn(self.server.connect()) for _ in range(self.connections)]
        selector = selectors.DefaultSelector()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        return conns, selector

    @staticmethod
    def _watch(selector: selectors.BaseSelector, conns: list[_Conn]) -> None:
        """Ask for write readiness only while a connection has unsent bytes."""
        for conn in conns:
            wanted = bool(conn.out)
            if wanted != conn.watching_write:
                mask = selectors.EVENT_READ
                if wanted:
                    mask |= selectors.EVENT_WRITE
                selector.modify(conn.sock, mask, conn)
                conn.watching_write = wanted

    @staticmethod
    def _read(conn: _Conn, arrival, now: float) -> int:
        """Drain readable bytes; stamp every completed line with *now*."""
        completed = 0
        while True:
            try:
                data = conn.sock.recv(1 << 18)
            except (BlockingIOError, InterruptedError):
                return completed
            if not data:
                conn.closed = True
                return completed
            conn.inbuf += data
            for _ in range(data.count(b"\n")):
                arrival[conn.awaiting.popleft()] = now
                completed += 1

    def _finish(
        self, conns: list[_Conn], selector, phase: Phase, cpu0: float
    ) -> Phase:
        phase.server_cpu_s = self.server.cpu_seconds() - cpu0
        selector.close()
        responses: list[bytes] = [b""] * phase.requests
        for conn in conns:
            lines = bytes(conn.inbuf).split(b"\n")
            for slot, line in zip(conn.sent_order, lines):
                responses[slot] = line
            conn.sock.close()
        phase.responses = responses
        phase.metrics_after = self.server.metrics()
        return phase

    def open_loop(
        self, wires: list[bytes], pool_start: int, schedule: np.ndarray
    ) -> Phase:
        """Send request ``k`` at ``schedule[k]`` (pool order, wrapping)."""
        n = len(schedule)
        pool = len(wires)
        pool_index = (pool_start + np.arange(n)) % pool
        sent = np.full(n, np.nan)
        arrival = np.full(n, np.nan)
        phase = Phase(pool_index, schedule.copy(), sent, arrival)
        phase.metrics_before = self.server.metrics()
        conns, selector = self._open()
        cpu0 = self.server.cpu_seconds()
        clock = time.perf_counter
        t0 = phase.t0 = clock() + 0.02
        nxt = received = 0
        deadline = None
        while received < n and not all(conn.closed for conn in conns):
            now = clock() - t0
            while nxt < n and schedule[nxt] <= now:
                conn = conns[nxt % len(conns)]
                conn.queue(nxt, wires[pool_index[nxt]])
                conn.flush()
                sent[nxt] = clock() - t0
                phase.generator_busy_s += sent[nxt] - now
                nxt += 1
            if nxt >= n:
                if deadline is None:
                    deadline = now + DRAIN_TIMEOUT_S
                elif now > deadline:
                    break
            self._watch(selector, conns)
            for key, mask in selector.select(0):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if mask & selectors.EVENT_READ:
                    began = clock() - t0
                    received += self._read(conn, arrival, began)
                    phase.generator_busy_s += clock() - t0 - began
        answered = arrival[~np.isnan(arrival)]
        phase.wall_s = float(answered.max()) if answered.size else 0.0
        return self._finish(conns, selector, phase, cpu0)

    def closed_loop(
        self, wires: list[bytes], pool_start: int, window: int, seconds: float,
        limit: int,
    ) -> Phase:
        """Keep up to *window* requests in flight per connection for
        *seconds*, refilling ``window // 2`` at a time, and send at most
        *limit* requests."""
        pool = len(wires)
        pool_index: list[int] = []
        sent: list[float] = []
        arrival: list[float] = []
        empty = np.zeros(0)
        phase = Phase(empty.astype(np.int64), empty, empty, empty)
        phase.metrics_before = self.server.metrics()
        conns, selector = self._open()
        cpu0 = self.server.cpu_seconds()
        t0 = phase.t0 = time.perf_counter()

        def send(conn: _Conn, count: int, now: float) -> None:
            for _ in range(count):
                slot = len(pool_index)
                pool_index.append((pool_start + slot) % pool)
                sent.append(now)
                arrival.append(float("nan"))
                conn.queue(slot, wires[pool_index[-1]])
            # One write per refill.
            conn.flush()

        refill = max(1, window // 2)
        for conn in conns:
            send(conn, min(window, limit - len(pool_index)), 0.0)
        outstanding = len(pool_index)
        deadline = seconds + DRAIN_TIMEOUT_S
        while outstanding and not all(conn.closed for conn in conns):
            now = time.perf_counter() - t0
            if now > deadline:
                break
            self._watch(selector, conns)
            for key, mask in selector.select(deadline - now):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if mask & selectors.EVENT_READ:
                    now = time.perf_counter() - t0
                    outstanding -= self._read(conn, arrival, now)
                    while (
                        now < seconds
                        and len(conn.awaiting) <= window - refill
                        and len(pool_index) + refill <= limit
                    ):
                        send(conn, refill, now)
                        outstanding += refill
        phase.pool_index = np.array(pool_index, dtype=np.int64)
        phase.scheduled = phase.sent = np.array(sent)
        phase.arrival = np.array(arrival)
        answered = phase.arrival[~np.isnan(phase.arrival)]
        phase.wall_s = float(answered.max()) if answered.size else 0.0
        return self._finish(conns, selector, phase, cpu0)
