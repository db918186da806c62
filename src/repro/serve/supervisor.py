"""Fleet control plane: spawn, supervise, reload, and aggregate N shards.

The supervisor owns everything the shards must agree on:

- **The shared data port.**  Under ``SO_REUSEPORT`` it binds a
  placeholder socket (bound, *not* listening — a non-listening socket
  never joins the kernel's accept group) so the port stays reserved for
  the fleet even while every shard is down; each shard then binds its
  own listening socket to the same port.  Without ``SO_REUSEPORT`` it
  binds one listening socket before forking and the shards accept on
  the inherited descriptor.
- **The signature generation.**  Reloads use a two-phase protocol over
  the shards' control pipes: ``stage`` (parse + build + warm, off the
  data path) on the supervisor's own reference store first — a bad
  candidate dies before any shard sees it — then on every shard;
  only unanimous success commits, supervisor first, then fan-out.  A
  failure anywhere aborts everywhere, so no shard ever serves a
  generation a sibling rejected and the fleet never answers with a
  mixed generation.
- **The telemetry.**  ``/stats`` and ``/metrics`` pull each shard's raw
  counter/histogram state over its pipe, merge them
  (:func:`~repro.serve.telemetry.merge_raw_states`), and expose both
  per-shard series (labelled ``shard="0"``...) and fleet aggregates —
  including merged latency histograms, not just sums of percentiles.
- **The lifecycle.**  A monitor task detects a dead shard (pipe EOF or
  process exit), reaps the zombie, respawns the slot with the *current*
  generation, and spot-checks the replacement against the supervisor's
  reference detector (:data:`~repro.serve.fleet.PROBE_PAYLOADS`) before
  letting it join the accept group.  A slot revives at most
  ``MAX_RESPAWNS`` times.  ``stop()`` — and SIGTERM under
  :meth:`FleetSupervisor.serve_forever`, which ends in the gateway's
  :func:`~repro.serve.protocol.run_until_signalled` — drains every shard
  within the gateway's deadline, then escalates terminate → kill, and
  reaps everything.

The control plane itself is a small HTTP server on its own port
(``/healthz``, ``/stats``, ``/metrics``, ``/reload``, ``/shards``),
served by the same :func:`~repro.serve.protocol.serve_http` exchange as
the single-process gateway's; a malformed request counts as the
supervisor's ``protocol_errors``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.conformance.verdict import (
    ConformanceError,
    diff_verdicts,
    serial_verdicts,
    verdicts_from_responses,
)
from repro.core.signature import SignatureSet
from repro.ids.engine import Detector
from repro.obs.prometheus import render_exposition
from repro.obs.registry import MetricsRegistry
from repro.serve.gateway import DRAIN_TIMEOUT_S, GatewayConfig
from repro.serve.fleet import (
    PROBE_PAYLOADS,
    ShardBoot,
    fleet_context,
    make_reuseport_listener,
    reuseport_available,
    shard_entry,
)
from repro.serve.protocol import (
    encode_line,
    refuse_http,
    reload_rejection,
    run_until_signalled,
    serve_http,
)
from repro.serve.store import SignatureStore, StoreError
from repro.serve.telemetry import (
    Telemetry,
    merge_raw_states,
    surfaces_section,
)

__all__ = ["FleetConfig", "FleetError", "FleetSupervisor", "MAX_RESPAWNS"]

#: Times one shard slot is revived; a slot that keeps dying is then left
#: down while the rest of the fleet keeps serving.
MAX_RESPAWNS = 3


class FleetError(RuntimeError):
    """A fleet-level operation failed (bring-up, reload, shard loss)."""


@dataclass
class FleetConfig:
    """Tunables of one fleet.

    Attributes:
        shards: worker process count.
        gateway: what every shard serves: ``host``/``port`` are the
            shared data address (port 0 picks an ephemeral one), and the
            backlog bound, policy and default surfaces apply per shard.
            The control plane binds ``gateway.host`` too.
        control_port: control-plane HTTP port (0 picks one).
        signature_path: signature JSON a body-less ``POST /reload``
            reads.
    """

    shards: int = 2
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    control_port: int = 0
    signature_path: str | None = None


@dataclass
class _ShardHandle:
    """Supervisor-side state of one shard slot."""

    shard_id: int
    process: Any = None
    conn: Any = None
    pid: int = 0
    alive: bool = False
    serving: bool = False
    respawns: int = 0
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    pending: dict[int, asyncio.Future] = field(default_factory=dict)

    def fail_pending(self, error: Exception) -> None:
        """Resolve every outstanding request with ``error``."""
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()


class FleetSupervisor:
    """Runs ``config.shards`` gateway processes behind one data port.

    Args:
        detector: the detector every shard mounts as generation 1; must
            be fork-inheritable (it is never pickled under the default
            fork start method).
        config: fleet tunables.
        detector_factory: builds reload candidates from a parsed
            :class:`~repro.core.signature.SignatureSet` (defaults to the
            store's ``PSigeneDetector`` construction).
        source: provenance of the initial generation.
    """

    #: Request deadlines per control command (seconds).
    _TIMEOUTS = {
        "ping": 15.0, "selfcheck": 30.0, "open": 15.0,
        "stage": 120.0, "commit": 15.0, "abort": 15.0, "stats": 10.0,
        "drain": DRAIN_TIMEOUT_S + 7.0,
    }

    def __init__(
        self,
        detector: Detector,
        config: FleetConfig | None = None,
        *,
        detector_factory: Callable[[SignatureSet], Detector] | None = None,
        source: str = "static",
    ) -> None:
        self.config = config or FleetConfig()
        if self.config.shards < 1:
            raise ValueError(
                f"need at least one shard, got {self.config.shards}"
            )
        self.telemetry = Telemetry()
        # The reference store: stages/commits in lockstep with the
        # shards, answers selfcheck comparisons, and seeds respawns.
        self.store = SignatureStore(
            detector,
            path=self.config.signature_path,
            detector_factory=detector_factory,
            telemetry=self.telemetry,
            source=source,
        )
        self.handles: list[_ShardHandle] = [
            _ShardHandle(shard_id=index)
            for index in range(self.config.shards)
        ]
        self._ctx = fleet_context()
        self._use_reuseport = reuseport_available()
        self._placeholder: socket.socket | None = None
        self._shared_listener: socket.socket | None = None
        self._data_host = self.config.gateway.host
        self._data_port = self.config.gateway.port
        self._control_server: asyncio.base_events.Server | None = None
        self._monitor_task: asyncio.Task | None = None
        self._reload_lock: asyncio.Lock | None = None
        self._message_ids = 0
        self._started = False
        self._stopping = False
        self._stopped = asyncio.Event()
        self._started_at = 0.0

    # -- addresses -----------------------------------------------------

    @property
    def data_address(self) -> tuple[str, int]:
        """Where clients send payload lines (shared across shards)."""
        return self._data_host, self._data_port

    @property
    def control_address(self) -> tuple[str, int]:
        """Where the control-plane HTTP endpoints answer."""
        if self._control_server is None:
            raise RuntimeError("fleet not started")
        sockname = self._control_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def version(self) -> int:
        """The fleet's committed signature generation."""
        return self.store.version

    def live_handles(self) -> list[_ShardHandle]:
        """Shard slots currently running."""
        return [handle for handle in self.handles if handle.alive]

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Reserve the port, spawn and verify every shard, open the
        control plane; returns the data-plane address."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._started_at = time.monotonic()
        self._reload_lock = asyncio.Lock()
        gateway = self.config.gateway
        if self._use_reuseport:
            self._placeholder = make_reuseport_listener(
                gateway.host, gateway.port, listen=False
            )
            sockname = self._placeholder.getsockname()
        else:
            self._shared_listener = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._shared_listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._shared_listener.bind((gateway.host, gateway.port))
            self._shared_listener.listen(128)
            sockname = self._shared_listener.getsockname()
        self._data_host, self._data_port = sockname[0], sockname[1]
        try:
            for handle in self.handles:
                self._spawn(handle)
                await self._bring_up(handle)
        except BaseException:
            await self.stop()
            raise
        self._control_server = await asyncio.start_server(
            self._handle_control, gateway.host, self.config.control_port
        )
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor()
        )
        return self.data_address

    def _spawn(self, handle: _ShardHandle) -> None:
        """Fork one shard process into ``handle``'s slot."""
        parent_conn, child_conn = self._ctx.Pipe()
        close_fds: tuple[int, ...] = ()
        if self._ctx.get_start_method() == "fork":
            fds = [parent_conn.fileno()]
            for other in self.handles:
                if other is not handle and other.conn is not None:
                    fds.append(other.conn.fileno())
            if self._placeholder is not None:
                fds.append(self._placeholder.fileno())
            if self._control_server is not None:
                fds.extend(
                    sock.fileno() for sock in self._control_server.sockets
                )
            close_fds = tuple(fds)
        current = self.store.current()
        boot = ShardBoot(
            shard_id=handle.shard_id,
            detector=current.detector,
            config=dataclasses.replace(
                self.config.gateway, port=self._data_port,
                allow_reload=False,
            ),
            generation=current.version,
            source=current.source,
            listen_socket=self._shared_listener,
            close_fds=close_fds,
        )
        process = self._ctx.Process(
            target=shard_entry,
            args=(boot, child_conn),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid or 0
        handle.alive = True
        handle.serving = False
        asyncio.get_running_loop().add_reader(
            parent_conn.fileno(), self._on_shard_message, handle
        )

    async def _bring_up(self, handle: _ShardHandle) -> None:
        """ping → conformance spot-check → open.  A shard that answers
        the probes differently from the reference detector, or leaves
        one unanswered, never joins the accept group."""
        await self._request(handle, "ping")
        reply = await self._request(
            handle, "selfcheck", payloads=list(PROBE_PAYLOADS)
        )
        shard = f"shard-{handle.shard_id}"
        reference = serial_verdicts(
            self.store.current().detector, PROBE_PAYLOADS
        )
        try:
            divergences = [d.describe() for d in diff_verdicts(
                "reference", reference, shard,
                verdicts_from_responses(reply["verdicts"], shard),
                PROBE_PAYLOADS,
            )]
        except ConformanceError as error:
            divergences = [str(error)]
        if divergences:
            self._destroy(handle)
            raise FleetError(
                f"shard {handle.shard_id} failed conformance spot-check "
                f"before joining the fleet: {divergences[0]}"
            )
        await self._request(handle, "open")
        handle.serving = True

    async def stop(self) -> None:
        """Drain every shard within the deadline, then escalate
        terminate → kill, reap all children, and close both planes."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        await asyncio.gather(
            *(self._request(handle, "drain") for handle in self.live_handles()),
            return_exceptions=True,
        )
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            await loop.run_in_executor(None, process.join, 2.0)
            if process.is_alive():
                process.terminate()
                await loop.run_in_executor(None, process.join, 1.0)
            if process.is_alive():
                process.kill()
                await loop.run_in_executor(None, process.join, 1.0)
            self._destroy(handle)
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._shared_listener is not None:
            self._shared_listener.close()
            self._shared_listener = None
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Start, then serve until SIGTERM/SIGINT and drain on the way
        out."""
        await self.start()
        control_host, control_port = self.control_address
        gateway = self.config.gateway
        print(
            f"repro.serve.fleet: {len(self.live_handles())} shards on "
            f"{self._data_host}:{self._data_port} "
            f"(control {control_host}:{control_port}, "
            f"queue={gateway.queue_bound}/shard, "
            f"policy={gateway.policy.value})"
        )
        await run_until_signalled(self)

    def _destroy(self, handle: _ShardHandle) -> None:
        """Tear down a slot's supervisor-side resources (reap happened
        or is about to)."""
        if handle.conn is not None:
            try:
                asyncio.get_running_loop().remove_reader(
                    handle.conn.fileno()
                )
            except (RuntimeError, OSError):
                pass
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.alive = False
        handle.serving = False
        handle.fail_pending(FleetError(f"shard {handle.shard_id} is down"))

    # -- control channel -----------------------------------------------

    def _on_shard_message(self, handle: _ShardHandle) -> None:
        try:
            while handle.conn is not None and handle.conn.poll():
                reply = handle.conn.recv()
                future = handle.pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (EOFError, OSError):
            # Shard process died; the monitor reaps and respawns.
            self._destroy(handle)

    async def _request(
        self, handle: _ShardHandle, command: str, **fields: Any
    ) -> dict:
        """Send one command to ``handle`` and await its reply.

        Raises:
            FleetError: the shard is down, answered ``ok=False``, or
                missed the deadline.
        """
        if handle.conn is None or not handle.alive:
            raise FleetError(f"shard {handle.shard_id} is down")
        self._message_ids += 1
        message = {"id": self._message_ids, "cmd": command, **fields}
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        handle.pending[message["id"]] = future
        conn, lock = handle.conn, handle.send_lock

        def _send() -> None:
            # Connection.send is not safe for interleaved writers; the
            # per-handle lock serializes the executor threads.
            with lock:
                conn.send(message)

        try:
            await loop.run_in_executor(None, _send)
            reply = await asyncio.wait_for(
                future, self._TIMEOUTS.get(command, 30.0)
            )
        except asyncio.TimeoutError:
            handle.pending.pop(message["id"], None)
            raise FleetError(
                f"shard {handle.shard_id} did not answer {command!r} "
                "in time"
            ) from None
        except (BrokenPipeError, OSError) as exc:
            handle.pending.pop(message["id"], None)
            raise FleetError(
                f"shard {handle.shard_id} pipe failed: {exc}"
            ) from exc
        if not reply.get("ok"):
            raise FleetError(
                f"shard {handle.shard_id} rejected {command!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    # -- two-phase reload ----------------------------------------------

    async def reload_json(
        self, text: str, *, source: str = "inline"
    ) -> dict:
        """Atomically deploy a new signature generation fleet-wide.

        Stage order: reference store first (a candidate that cannot
        parse or warm dies here, before any shard spends cycles), then
        every live shard concurrently.  Any failure aborts the staged
        candidate everywhere and raises; only unanimous staging commits
        — reference first, then fan-out — so the fleet generation flips
        once and completely.

        Raises:
            StoreError: the candidate was rejected (parse/warm/stage).
            FleetError: a shard failed to stage or commit.
        """
        async with self._reload_lock:
            generation = self.store.version + 1
            loop = asyncio.get_running_loop()
            # Local stage runs in an executor: warming compiles the
            # fused plan, and the control plane should keep answering.
            await loop.run_in_executor(
                None,
                lambda: self.store.stage_json(
                    text, generation=generation, source=source
                ),
            )
            live = self.live_handles()
            outcomes = await asyncio.gather(
                *(
                    self._request(
                        handle, "stage",
                        text=text, generation=generation, source=source,
                    )
                    for handle in live
                ),
                return_exceptions=True,
            )
            failures = [
                (handle, outcome)
                for handle, outcome in zip(live, outcomes)
                if isinstance(outcome, BaseException)
            ]
            if failures:
                self.store.abort_staged(generation)
                await asyncio.gather(
                    *(
                        self._request(
                            handle, "abort", generation=generation
                        )
                        for handle in live
                        if handle.alive
                    ),
                    return_exceptions=True,
                )
                self.telemetry.increment("reload_failures")
                self.telemetry.increment("reload_rejected")
                first_failure = failures[0][1]
                raise FleetError(
                    f"reload aborted: {len(failures)}/{len(live)} shards "
                    f"failed to stage generation {generation} "
                    f"(first: {first_failure})"
                )
            self.store.commit_staged(generation)
            commit_outcomes = await asyncio.gather(
                *(
                    self._request(
                        handle, "commit", generation=generation
                    )
                    for handle in live
                ),
                return_exceptions=True,
            )
            for handle, outcome in zip(live, commit_outcomes):
                if isinstance(outcome, BaseException):
                    # The shard staged successfully but could not commit
                    # — it is wedged or dead.  Take it out; the monitor
                    # respawns it straight into the new generation.
                    self._kill_shard(handle)
            return {
                "version": generation,
                "source": source,
                "detector": self.store.current().detector.name,
                "shards": len(self.live_handles()),
            }

    def _kill_shard(self, handle: _ShardHandle) -> None:
        """Forcibly remove a misbehaving shard; the monitor reaps it."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.terminate()
        self._destroy(handle)

    # -- monitor / respawn ---------------------------------------------

    async def _monitor(self) -> None:
        """Detect dead shards, reap them, and revive their slots."""
        while True:
            await asyncio.sleep(0.2)
            for handle in self.handles:
                process = handle.process
                if process is None:
                    continue
                if handle.alive and process.is_alive():
                    continue
                # Reap the zombie and release its resources.
                process.join(timeout=0)
                self._destroy(handle)
                if handle.respawns >= MAX_RESPAWNS:
                    self.telemetry.increment("respawn_exhausted")
                    handle.process = None
                    continue
                handle.respawns += 1
                self.telemetry.increment("respawns")
                try:
                    self._spawn(handle)
                    await self._bring_up(handle)
                except (FleetError, OSError):
                    self.telemetry.increment("respawn_failures")
                    self._kill_shard(handle)

    # -- aggregation ---------------------------------------------------

    async def _collect_states(self) -> list[tuple[_ShardHandle, dict]]:
        """Pull ``stats`` from every live shard (dead ones are skipped,
        freshly-dead ones tolerated)."""
        live = self.live_handles()
        replies = await asyncio.gather(
            *(self._request(handle, "stats") for handle in live),
            return_exceptions=True,
        )
        return [
            (handle, reply)
            for handle, reply in zip(live, replies)
            if not isinstance(reply, BaseException)
        ]

    async def stats(self) -> dict:
        """Fleet ``/stats`` document: per-shard and merged telemetry."""
        collected = await self._collect_states()
        merged = merge_raw_states(
            [reply["state"] for _, reply in collected]
        )
        per_shard = {
            str(handle.shard_id): {
                "pid": reply["pid"],
                "version": reply["version"],
                "queue_depth": reply["queue_depth"],
                "serving": reply["serving"],
                "respawns": handle.respawns,
                "counters": reply["state"]["counters"],
            }
            for handle, reply in collected
        }
        current = self.store.current()
        return {
            "fleet": {
                "shards": len(self.handles),
                "live": len(self.live_handles()),
                "uptime_s": time.monotonic() - self._started_at,
                "counters": merged["counters"],
                "surfaces": surfaces_section(merged["counters"]),
                "latency": {
                    name: {
                        "count": histogram.count,
                        **histogram.percentiles_ms(),
                    }
                    for name, histogram in merged["histograms"].items()
                },
            },
            "store": {
                "detector": current.detector.name,
                "version": current.version,
                "source": current.source,
            },
            "supervisor": self.telemetry.snapshot(),
            "shards": per_shard,
        }

    async def metrics(self) -> str:
        """Prometheus exposition for the whole fleet.

        Built into one transient registry per scrape — per-shard counter
        series carry a ``shard`` label, fleet totals use
        ``shard="fleet"``, and latency histograms are merged across
        shards bucket-by-bucket (concatenating per-shard expositions
        would emit duplicate families, which strict parsers reject).
        """
        collected = await self._collect_states()
        states = [reply["state"] for _, reply in collected]
        merged = merge_raw_states(states)
        registry = MetricsRegistry()
        for (handle, reply), state in zip(collected, states):
            label = {"shard": str(handle.shard_id)}
            for name, value in state["counters"].items():
                registry.counter(
                    f"repro_{name}_total",
                    f"Serving counter {name!r}.",
                    labels=label,
                ).inc(value)
            registry.gauge(
                "repro_queue_depth",
                "Admission queue depth at scrape time.",
                labels=label,
            ).set(float(reply["queue_depth"]))
        for name, value in merged["counters"].items():
            registry.counter(
                f"repro_{name}_total",
                f"Serving counter {name!r}.",
                labels={"shard": "fleet"},
            ).inc(value)
        for name, histogram in merged["histograms"].items():
            target = registry.histogram(
                f"repro_{name}_seconds",
                f"Latency histogram {name!r} (seconds), fleet-merged.",
            )
            target.merge_state(histogram.state())
        for name, value in self.telemetry.raw_state()["counters"].items():
            registry.counter(
                f"repro_{name}_total",
                f"Supervisor counter {name!r}.",
                labels={"shard": "supervisor"},
            ).inc(value)
        registry.gauge(
            "repro_fleet_shards", "Configured shard slots.",
        ).set(float(len(self.handles)))
        registry.gauge(
            "repro_fleet_live_shards", "Shards currently serving.",
        ).set(float(len(self.live_handles())))
        registry.gauge(
            "repro_store_version", "Deployed signature store generation.",
        ).set(float(self.store.version))
        return render_exposition(registry)

    # -- control-plane HTTP --------------------------------------------

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                first = await reader.readline()
            except ValueError:  # asyncio's stream limit overrun
                await refuse_http(
                    writer, self.telemetry, "request line too long"
                )
                return
            if first:
                await serve_http(
                    reader, writer, first, self._route, self.telemetry
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, message) -> tuple[int, dict | str]:
        method, path = message.method, message.path
        if path == "/healthz" and method == "GET":
            live = len(self.live_handles())
            current = self.store.current()
            return (200 if live else 503), {
                "status": "ok" if live == len(self.handles) else (
                    "degraded" if live else "down"
                ),
                "detector": current.detector.name,
                "version": current.version,
                "shards": len(self.handles),
                "live": live,
            }
        if path == "/stats" and method == "GET":
            return 200, await self.stats()
        if path == "/metrics" and method == "GET":
            return 200, await self.metrics()
        if path == "/shards" and method == "GET":
            return 200, {
                "data_port": self._data_port,
                "reuseport": self._shared_listener is None,
                "shards": [
                    {
                        "shard_id": handle.shard_id,
                        "pid": handle.pid,
                        "alive": handle.alive,
                        "serving": handle.serving,
                        "respawns": handle.respawns,
                    }
                    for handle in self.handles
                ],
            }
        if path == "/reload" and method == "POST":
            return await self._route_reload(message.body)
        if path in ("/healthz", "/stats", "/metrics", "/shards", "/reload"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route {path}"}

    async def _route_reload(self, body: str) -> tuple[int, dict]:
        try:
            text, source = self.store.reload_text(body)
            return 200, await self.reload_json(text, source=source)
        except StoreError as exc:
            return 400, reload_rejection(
                str(exc), exc.reason, self.store.version
            )
        except FleetError as exc:
            return 502, reload_rejection(
                str(exc), "fleet", self.store.version
            )

    # -- convenience ---------------------------------------------------

    async def inspect(self, payload: str) -> dict:
        """One round-trip through the shared data port (test helper)."""
        reader, writer = await asyncio.open_connection(
            self._data_host, self._data_port
        )
        try:
            writer.write(encode_line(payload))
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        return json.loads(line)
