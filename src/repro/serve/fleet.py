"""Fleet data plane: one shard process per core, one shared port.

One gateway is a single ``selectors`` loop on one thread, so its
throughput tops out at one core.  The fleet splits the data plane across
N processes — each running the existing
:class:`~repro.serve.gateway.DetectionGateway` unchanged — all accepting
on **one** TCP port, bound on the first address ``--host`` resolves to,
in that address's family (IPv4 or IPv6; :func:`bind_data_port`):

- With ``SO_REUSEPORT`` (Linux, modern BSDs) every shard binds its own
  listening socket to the shared port and the kernel load-balances new
  connections across them.  A shard that dies drops out of the accept
  group automatically.
- Without it, the supervisor binds a single listening socket before
  forking and every shard accepts on the fork-inherited file
  descriptor — the classic pre-fork accept loop.

This module is the *shard side*: the process entrypoint, the control
channel it speaks with the supervisor (a duplex pipe carrying small
picklable dicts), and the lifecycle of one shard.  The control plane —
spawning, two-phase reload fan-out, telemetry aggregation, respawn —
lives in :mod:`repro.serve.supervisor`.  A shard is forked from a
supervisor that runs no event loop either, and it closes every
descriptor of the supervisor's loop first (:attr:`ShardBoot.close_fds`),
so it holds no control connection, no other shard's pipe and no
placeholder.

A shard runs its gateway's loop on its main thread with the supervisor
pipe on the same selector
(:meth:`~repro.serve.gateway.DetectionGateway.add_reader`), so one
select round serves both planes.  Commands are answered on the loop,
except ``stage``, which warms the candidate on a thread and replies from
there.  Shard lifecycle (commands arrive over the pipe)::

    spawn -> ping -> selfcheck -> open -> ... serving ...
                                        -> stage/commit/abort (reload)
                                        -> stats (telemetry pull)
                                        -> drain (exit after the
                                           gateway's own bounded drain)

A shard serves the fleet's one :class:`~repro.serve.gateway.GatewayConfig`
(:attr:`ShardBoot.config`) with the shared port filled in and
``allow_reload=False``: a shard never publishes a signature generation
on its own.  Reloads arrive only as ``stage`` (build + warm off to the
side, report success/failure) followed by ``commit`` (atomic flip) — the
supervisor commits only after *every* shard staged successfully, so the
fleet never serves a mixed generation.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from dataclasses import dataclass
from typing import Any

from repro.serve.gateway import (
    DetectionGateway,
    GatewayConfig,
    host_addresses,
)
from repro.serve.protocol import response_fields
from repro.serve.store import SignatureStore, StoreError
from repro.serve.telemetry import Telemetry

__all__ = [
    "PROBE_PAYLOADS",
    "ShardBoot",
    "bind_data_port",
    "fleet_context",
    "reuseport_available",
    "shard_entry",
]

#: Deterministic spot-check payloads: a respawned shard must answer
#: these exactly like the supervisor's reference detector before it is
#: allowed to rejoin the accept group.  A mix of obvious injections and
#: benign portal traffic so both verdict polarities are exercised.
PROBE_PAYLOADS = (
    "id=1' UNION SELECT username, password FROM users--",
    "q=1 OR 1=1; DROP TABLE users",
    "search=union+select+benchmark(500000,md5(1))",
    "item=2' AND SLEEP(5)--",
    "page=2&sort=asc&filter=recent",
    "name=alice&city=Z%C3%BCrich",
    "q=how to make pancakes",
    "session=abc123&lang=en-US",
)


def reuseport_available() -> bool:
    """Can this platform share one port across independent listeners?"""
    return hasattr(socket, "SO_REUSEPORT")


def bind_data_port(
    host: str, port: int, *, listen: bool = True, backlog: int = 128
) -> socket.socket:
    """A socket bound to the fleet's data port: the first address
    ``host`` resolves to, in that address's family.

    With ``SO_REUSEPORT`` every shard binds its own listening one, and
    the supervisor holds one with ``listen=False``: bound but never in
    the kernel's accept group, it reserves the port for the fleet (and
    keeps it reserved across shard deaths) without ever taking a
    connection.  Without ``SO_REUSEPORT`` the supervisor binds the one
    listener every shard inherits.
    """
    family, address = host_addresses(host, port)[0]
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_REUSEPORT if reuseport_available()
            else socket.SO_REUSEADDR,
            1,
        )
        sock.bind(address)
        if listen:
            sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock


def fleet_context():
    """The multiprocessing context fleets use.

    ``fork`` when available: shards inherit the (already warmed)
    detector and, on the no-``SO_REUSEPORT`` fallback, the shared
    listening socket — no pickling, no re-import, millisecond spawns.
    Elsewhere the default context is used; the detector must then be
    picklable and ``SO_REUSEPORT`` must exist (an inherited listener
    cannot cross a spawn boundary).
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class ShardBoot:
    """Everything one shard process needs to come up.

    Attributes:
        shard_id: stable slot number (respawns keep it).
        detector: the detector to mount (current fleet generation).
        config: the fleet's gateway config, with ``host`` and ``port``
            set to the shared data address and ``allow_reload`` False.
        generation: store version the detector represents.
        source: provenance string for the shard's store.
        listen_socket: fork-inherited shared listener when the platform
            has no ``SO_REUSEPORT``; otherwise None, and the shard binds
            its own ``SO_REUSEPORT`` listener to ``config.port``.
        close_fds: supervisor-side descriptors a forked child closes
            first (everything the supervisor's loop holds — its
            selector, wake-up pair, control listeners and connections,
            the other shards' sentinels — plus the other shards' pipes
            and the port placeholder), so a shard never holds one open
            past the supervisor's own close.
    """

    shard_id: int
    detector: Any
    config: GatewayConfig
    generation: int = 1
    source: str = "static"
    listen_socket: socket.socket | None = None
    close_fds: tuple[int, ...] = ()


def shard_entry(boot: ShardBoot, conn) -> None:
    """Process entrypoint for one fleet shard (runs in the child)."""
    # A signal must not land in an in-process caller's event loop
    # through a wake-up descriptor the fork inherited.
    signal.set_wakeup_fd(-1)
    # The supervisor coordinates shutdown: a stray ^C in the foreground
    # process group must not kill shards before they can drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for fd in boot.close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _ShardServer(boot, conn).run()


class _ShardServer:
    """One shard: a gateway whose loop also reads the supervisor pipe."""

    def __init__(self, boot: ShardBoot, conn) -> None:
        self.boot = boot
        self.conn = conn
        self.telemetry = Telemetry()
        self.store = SignatureStore(
            boot.detector,
            telemetry=self.telemetry,
            source=boot.source,
            initial_version=boot.generation,
        )
        self.gateway = DetectionGateway(
            self.store, boot.config, self.telemetry
        )
        self._data_socket: socket.socket | None = None
        self._serving = False
        # The ``drain`` command, answered once the gateway has stopped.
        self._drain_message: dict | None = None
        # Staging replies from their own thread.
        self._send_lock = threading.Lock()

    def run(self) -> None:
        """Serve until a ``drain`` command (or supervisor death)."""
        # SIGTERM — the supervisor's escalation path (and any external
        # process manager) — triggers the same drain as the pipe command.
        signal.signal(
            signal.SIGTERM, lambda signum, frame: self.gateway.request_stop()
        )
        self.gateway.add_reader(self.conn, self._on_readable)
        try:
            drained = self.gateway.run()
            if self._drain_message is not None:
                self._reply(self._drain_message, ok=True, drained=drained)
        finally:
            if self._data_socket is not None:
                self._data_socket.close()
            try:
                self.conn.close()
            except OSError:
                pass

    # -- control channel -----------------------------------------------

    def _on_readable(self) -> None:
        try:
            while self.conn.poll():
                self._handle(self.conn.recv())
        except (EOFError, OSError):
            # Supervisor is gone: drain on our own deadline and exit
            # rather than serving as an orphan forever.
            self.gateway.remove_reader(self.conn)
            self.gateway.request_stop()

    def _reply(self, message: dict, **fields: Any) -> None:
        message_id = message.get("id")
        if message_id is None or message_id < 0:
            return
        try:
            with self._send_lock:
                self.conn.send({"id": message_id, **fields})
        except (BrokenPipeError, OSError):
            pass

    def _handle(self, message: dict) -> None:
        command = message.get("cmd")
        try:
            if command == "ping":
                self._reply(
                    message, ok=True, pid=os.getpid(),
                    version=self.store.version, serving=self._serving,
                )
            elif command == "open":
                host, port = self._open()
                self._reply(message, ok=True, host=host, port=port)
            elif command == "selfcheck":
                self._reply(
                    message, ok=True,
                    verdicts=self._selfcheck(message["payloads"]),
                )
            elif command == "stage":
                threading.Thread(
                    target=self._stage, args=(message,), daemon=True
                ).start()
            elif command == "commit":
                published = self.store.commit_staged(message["generation"])
                self._reply(message, ok=True, version=published.version)
            elif command == "abort":
                self.store.abort_staged(message.get("generation"))
                self._reply(message, ok=True)
            elif command == "stats":
                self._reply(
                    message, ok=True, pid=os.getpid(),
                    version=self.store.version,
                    queue_depth=self.gateway.admission.depth,
                    serving=self._serving,
                    state=self.telemetry.raw_state(),
                )
            elif command == "drain":
                self._drain_message = message
                self.gateway.request_stop()
            else:
                self._reply(
                    message, ok=False, error=f"unknown command {command!r}"
                )
        except Exception as exc:
            self._fail(message, exc)

    def _fail(self, message: dict, exc: Exception) -> None:
        if isinstance(exc, StoreError):
            self._reply(
                message, ok=False, error=str(exc), reason=exc.reason
            )
        else:  # control bug: answer, don't die
            self._reply(
                message, ok=False, error=f"{type(exc).__name__}: {exc}",
                reason="internal",
            )

    # -- command implementations ---------------------------------------

    def _open(self) -> tuple[str, int]:
        """Join the accept group and start serving the data plane."""
        if self._serving:
            sockname = self._data_socket.getsockname()
            return sockname[0], sockname[1]
        if self.boot.listen_socket is not None:
            self._data_socket = self.boot.listen_socket
        else:
            self._data_socket = bind_data_port(
                self.boot.config.host, self.boot.config.port
            )
        host, port = self.gateway.listen(sock=self._data_socket)
        self._serving = True
        return host, port

    def _selfcheck(self, payloads: list[str]) -> list[dict]:
        """Answer probe payloads with the live generation, serially, in
        the data plane's response fields."""
        current = self.store.current()
        inspect = current.detector.inspect
        return [
            response_fields(inspect(payload), current.version)
            for payload in payloads
        ]

    def _stage(self, message: dict) -> None:
        """Build + warm a reload candidate off the loop: warming compiles
        the fused plan, CPU work that must not stall in-flight
        inspections."""
        try:
            self.store.stage_json(
                message["text"],
                generation=message["generation"],
                source=message.get("source", "fleet"),
            )
        except Exception as exc:
            self._fail(message, exc)
            return
        self._reply(
            message, ok=True, staged=message["generation"],
            version=self.store.version,
        )
