"""Fleet control plane: spawn, supervise, reload, and aggregate N shards.

The supervisor owns everything the shards must agree on:

- **The shared data port.**  It binds the first address the gateway's
  ``host`` resolves to, in that address's family
  (:func:`~repro.serve.fleet.bind_data_port`).  Under ``SO_REUSEPORT``
  it binds a placeholder socket (bound, *not* listening — a
  non-listening socket never joins the kernel's accept group) so the
  port stays reserved for the fleet even while every shard is down;
  each shard then binds its own listening socket to the same address.
  Without ``SO_REUSEPORT`` it binds one listening socket before forking
  and the shards accept on the inherited descriptor.
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
- **The lifecycle.**  Each shard's ``process.sentinel`` sits on the
  control plane's selector.  When a shard dies the loop reaps it,
  respawns the slot with the *current* generation, and spot-checks the
  replacement against the supervisor's reference detector
  (:data:`~repro.serve.fleet.PROBE_PAYLOADS`) before letting it join the
  accept group.  A slot revives at most ``MAX_RESPAWNS`` times.
  ``stop()`` — and SIGTERM under :meth:`FleetSupervisor.serve_forever` —
  drains every shard within the gateway's deadline, then escalates
  terminate → kill, and reaps everything.

The control plane is the gateway's own ``selectors`` loop and HTTP
exchange on its own port (accept, parse, a 400 counted as the
supervisor's ``protocol_errors``, half-close, bounded discard),
answering the fleet's routes (``/healthz``, ``/stats``, ``/metrics``,
``/reload``, ``/shards``) in place of the gateway's.  Every control
connection is HTTP from its first byte, and nothing is admitted.  The
supervisor talks to its shards one conversation at a time: it sends a
command to each shard concerned, then waits for their replies with
:func:`multiprocessing.connection.wait` under the command's deadline,
so control requests are answered one at a time.  ``repro serve
--shards N`` runs the loop on its main thread; in process,
:meth:`~FleetSupervisor.start` runs it on a thread and
:meth:`~FleetSupervisor.stop` joins it, while ``reload_json``, ``stats``
and ``metrics`` run the supervisor's work on the caller's thread.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
from repro.serve.gateway import (
    _HTTP,
    DRAIN_TIMEOUT_S,
    DetectionGateway,
    GatewayConfig,
)
from repro.serve.fleet import (
    PROBE_PAYLOADS,
    ShardBoot,
    bind_data_port,
    fleet_context,
    reuseport_available,
    shard_entry,
)
from repro.serve.protocol import (
    HttpMessage,
    HttpRequestParser,
    reload_rejection,
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


class _ControlPlane(DetectionGateway):
    """The supervisor's control port: the gateway's loop and HTTP
    exchange answering the fleet's routes.  Every connection is HTTP
    from its first byte, so a payload line is a malformed request, and
    nothing is admitted (no ``/inspect``)."""

    def __init__(self, supervisor: FleetSupervisor) -> None:
        super().__init__(
            supervisor.store,
            GatewayConfig(
                host=supervisor.config.gateway.host,
                port=supervisor.config.control_port,
            ),
            supervisor.telemetry,
        )
        self.supervisor = supervisor
        self.address: tuple[str, int] | None = None

    def listen(self, *, sock=None) -> tuple[str, int]:
        self.address = super().listen(sock=sock)
        return self.address

    def _classify(self, conn) -> None:
        conn.state, conn.http = _HTTP, HttpRequestParser()

    def _respond(self, conn, message: HttpMessage) -> None:
        self._answer_http(conn, *self.supervisor._route(message))

    def _banner(self, host: str, port: int) -> str:
        return self.supervisor._banner(host, port)


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
        # The placeholder under SO_REUSEPORT, else the shared listener.
        self._data_socket = None
        self._data_host = self.config.gateway.host
        self._data_port = self.config.gateway.port
        self._control = _ControlPlane(self)
        # One conversation with the shards at a time: a bring-up, a
        # reload, a telemetry pull, a respawn or the shutdown.
        self._conversation = threading.Lock()
        self._message_ids = 0
        self._started = False
        self._started_at = 0.0

    # -- addresses -----------------------------------------------------

    @property
    def data_address(self) -> tuple[str, int]:
        """Where clients send payload lines (shared across shards)."""
        return self._data_host, self._data_port

    @property
    def control_address(self) -> tuple[str, int]:
        """Where the control-plane HTTP endpoints answer."""
        if self._control.address is None:
            raise RuntimeError("fleet not started")
        return self._control.address

    @property
    def version(self) -> int:
        """The fleet's committed signature generation."""
        return self.store.version

    def live_handles(self) -> list[_ShardHandle]:
        """Shard slots currently running."""
        return [handle for handle in self.handles if handle.alive]

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Bring the fleet up, serve the control port on this (main)
        thread until SIGTERM or SIGINT, and drain every shard on the way
        out."""
        try:
            self._launch()
            self._control.serve_forever()
        finally:
            self._shut_down()

    def start(self) -> tuple[str, int]:
        """Reserve the port, spawn and verify every shard, then serve the
        control plane on a thread; returns the data-plane address."""
        if self._started:
            raise RuntimeError("fleet already started")
        try:
            self._launch()
            self._control.start()
        except BaseException:
            self.stop()
            raise
        return self.data_address

    def stop(self) -> None:
        """Stop the control plane, then drain every shard within the
        deadline, escalate terminate → kill, and reap every child."""
        self._control.stop()
        self._shut_down()

    def _launch(self) -> None:
        """Reserve the data port, then spawn and verify every shard."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._started_at = time.monotonic()
        gateway = self.config.gateway
        self._data_socket = bind_data_port(
            gateway.host, gateway.port, listen=not self._use_reuseport
        )
        sockname = self._data_socket.getsockname()
        self._data_host, self._data_port = sockname[0], sockname[1]
        with self._conversation:
            for handle in self.handles:
                self._spawn(handle)
                self._bring_up(handle)

    def _shut_down(self) -> None:
        """Drain every shard within the gateway's deadline, then escalate
        terminate → kill, reap every child and release the data port."""
        with self._conversation:
            self._converse(self.live_handles(), "drain")
            for handle in self.handles:
                process = handle.process
                if process is None:
                    continue
                process.join(2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(1.0)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
                self._destroy(handle)
            if self._data_socket is not None:
                self._data_socket.close()
                self._data_socket = None

    def _banner(self, host: str, port: int) -> str:
        gateway = self.config.gateway
        return (
            f"repro.serve.fleet: {len(self.live_handles())} shards on "
            f"{self._data_host}:{self._data_port} "
            f"(control {host}:{port}, "
            f"queue={gateway.queue_bound}/shard, "
            f"policy={gateway.policy.value})"
        )

    def _spawn(self, handle: _ShardHandle) -> None:
        """Fork one shard process into ``handle``'s slot, and watch its
        sentinel on the control plane's selector."""
        parent_conn, child_conn = self._ctx.Pipe()
        close_fds: tuple[int, ...] = ()
        if self._ctx.get_start_method() == "fork":
            fds = {parent_conn.fileno(), *self._control.descriptors()}
            fds.update(
                other.conn.fileno() for other in self.handles
                if other.conn is not None
            )
            if self._use_reuseport:
                fds.add(self._data_socket.fileno())
            close_fds = tuple(sorted(fds))
        current = self.store.current()
        boot = ShardBoot(
            shard_id=handle.shard_id,
            detector=current.detector,
            config=dataclasses.replace(
                self.config.gateway, host=self._data_host,
                port=self._data_port, allow_reload=False,
            ),
            generation=current.version,
            source=current.source,
            listen_socket=None if self._use_reuseport else self._data_socket,
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
        self._control.add_reader(
            process.sentinel, lambda: self._on_exit(handle, process)
        )

    def _bring_up(self, handle: _ShardHandle) -> None:
        """ping → conformance spot-check → open.  A shard that answers
        the probes differently from the reference detector, or leaves
        one unanswered, never joins the accept group."""
        self._request(handle, "ping")
        reply = self._request(
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
        self._request(handle, "open")
        handle.serving = True

    def _on_exit(self, handle: _ShardHandle, process) -> None:
        """A shard process ended (its sentinel is readable): reap it and
        revive the slot, unless its respawns are spent."""
        with self._conversation:
            self._control.remove_reader(process.sentinel)
            process.join()
            process.close()  # its sentinel, before the next fork
            handle.process = None
            self._destroy(handle)
            if handle.respawns >= MAX_RESPAWNS:
                self.telemetry.increment("respawn_exhausted")
                return
            handle.respawns += 1
            self.telemetry.increment("respawns")
            try:
                self._spawn(handle)
                self._bring_up(handle)
            except (FleetError, OSError):
                self.telemetry.increment("respawn_failures")
                self._kill_shard(handle)

    def _kill_shard(self, handle: _ShardHandle) -> None:
        """Forcibly remove a misbehaving shard: SIGKILL, so that its
        sentinel fires (and the slot is revived) even if it is wedged."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        self._destroy(handle)

    def _destroy(self, handle: _ShardHandle) -> None:
        """Release a slot's pipe; the process is reaped separately."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.alive = False
        handle.serving = False

    # -- control channel -----------------------------------------------

    def _converse(
        self, handles: list[_ShardHandle], command: str, **fields: Any
    ) -> list[dict | FleetError]:
        """Send one command to each of ``handles``, then wait for every
        reply under the command's deadline.

        Returns each handle's reply, or the :class:`FleetError` it failed
        with: the shard is down or its pipe broke, it answered
        ``ok=False``, or it missed the deadline.  A reply to an earlier,
        timed-out conversation carries an older id and is dropped.
        """
        self._message_ids += 1
        message = {"id": self._message_ids, "cmd": command, **fields}
        deadline = time.monotonic() + self._TIMEOUTS.get(command, 30.0)
        outcomes: dict[int, dict | FleetError] = {}
        waiting: dict[Any, _ShardHandle] = {}
        for handle in handles:
            if handle.conn is None or not handle.alive:
                outcomes[handle.shard_id] = FleetError(
                    f"shard {handle.shard_id} is down"
                )
                continue
            try:
                handle.conn.send(message)
            except OSError as exc:
                outcomes[handle.shard_id] = FleetError(
                    f"shard {handle.shard_id} pipe failed: {exc}"
                )
                continue
            waiting[handle.conn] = handle
        while waiting:
            ready = wait(list(waiting), max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            for conn in ready:
                handle = waiting[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    del waiting[conn]
                    self._destroy(handle)  # its sentinel reaps it
                    outcomes[handle.shard_id] = FleetError(
                        f"shard {handle.shard_id} is down"
                    )
                    continue
                if reply.get("id") != message["id"]:
                    continue
                del waiting[conn]
                outcomes[handle.shard_id] = reply if reply.get("ok") else (
                    FleetError(
                        f"shard {handle.shard_id} rejected {command!r}: "
                        f"{reply.get('error', 'unknown error')}"
                    )
                )
        for handle in waiting.values():
            outcomes[handle.shard_id] = FleetError(
                f"shard {handle.shard_id} did not answer {command!r} "
                "in time"
            )
        return [outcomes[handle.shard_id] for handle in handles]

    def _request(
        self, handle: _ShardHandle, command: str, **fields: Any
    ) -> dict:
        """One command to one shard; its reply.

        Raises:
            FleetError: as :meth:`_converse` reports it.
        """
        (outcome,) = self._converse([handle], command, **fields)
        if isinstance(outcome, FleetError):
            raise outcome
        return outcome

    # -- two-phase reload ----------------------------------------------

    def reload_json(self, text: str, *, source: str = "inline") -> dict:
        """Atomically deploy a new signature generation fleet-wide.

        Stage order: reference store first (a candidate that cannot
        parse or warm dies here, before any shard spends cycles), then
        every live shard in one conversation.  Any failure aborts the
        staged candidate everywhere and raises; only unanimous staging
        commits — reference first, then fan-out — so the fleet
        generation flips once and completely.

        Raises:
            StoreError: the candidate was rejected (parse/warm/stage).
            FleetError: a shard failed to stage or commit.
        """
        with self._conversation:
            generation = self.store.version + 1
            self.store.stage_json(text, generation=generation, source=source)
            live = self.live_handles()
            outcomes = self._converse(
                live, "stage", text=text, generation=generation,
                source=source,
            )
            failures = [
                outcome for outcome in outcomes
                if isinstance(outcome, FleetError)
            ]
            if failures:
                self.store.abort_staged(generation)
                self._converse(
                    [handle for handle in live if handle.alive],
                    "abort", generation=generation,
                )
                self.telemetry.increment("reload_failures")
                self.telemetry.increment("reload_rejected")
                raise FleetError(
                    f"reload aborted: {len(failures)}/{len(live)} shards "
                    f"failed to stage generation {generation} "
                    f"(first: {failures[0]})"
                )
            self.store.commit_staged(generation)
            commits = self._converse(live, "commit", generation=generation)
            for handle, outcome in zip(live, commits):
                if isinstance(outcome, FleetError):
                    # The shard staged but could not commit — it is
                    # wedged or dead.  Take it out; it is respawned
                    # straight into the new generation.
                    self._kill_shard(handle)
            return {
                "version": generation,
                "source": source,
                "detector": self.store.current().detector.name,
                "shards": len(self.live_handles()),
            }

    # -- aggregation ---------------------------------------------------

    def _collect_states(self) -> list[tuple[_ShardHandle, dict]]:
        """Pull ``stats`` from every live shard (dead ones are skipped,
        freshly-dead ones tolerated)."""
        with self._conversation:
            live = self.live_handles()
            replies = self._converse(live, "stats")
        return [
            (handle, reply)
            for handle, reply in zip(live, replies)
            if not isinstance(reply, FleetError)
        ]

    def stats(self) -> dict:
        """Fleet ``/stats`` document: per-shard and merged telemetry."""
        collected = self._collect_states()
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

    def metrics(self) -> str:
        """Prometheus exposition for the whole fleet.

        Built into one transient registry per scrape — per-shard counter
        series carry a ``shard`` label, fleet totals use
        ``shard="fleet"``, and latency histograms are merged across
        shards bucket-by-bucket (concatenating per-shard expositions
        would emit duplicate families, which strict parsers reject).
        """
        collected = self._collect_states()
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

    # -- control-plane routes ------------------------------------------

    def _route(self, message: HttpMessage) -> tuple[int, dict | str]:
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
            return 200, self.stats()
        if path == "/metrics" and method == "GET":
            return 200, self.metrics()
        if path == "/shards" and method == "GET":
            return 200, {
                "data_port": self._data_port,
                "reuseport": self._use_reuseport,
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
            return self._route_reload(message.body)
        if path in ("/healthz", "/stats", "/metrics", "/shards", "/reload"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route {path}"}

    def _route_reload(self, body: str) -> tuple[int, dict]:
        try:
            text, source = self.store.reload_text(body)
            return 200, self.reload_json(text, source=source)
        except StoreError as exc:
            return 400, reload_rejection(
                str(exc), exc.reason, self.store.version
            )
        except FleetError as exc:
            return 502, reload_rejection(
                str(exc), "fleet", self.store.version
            )
