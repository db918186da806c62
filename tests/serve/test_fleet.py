"""Fleet tests: shared-port serving, two-phase reload, shard resilience.

The acceptance bar mirrors the single-process gateway's: verdicts
through the sharded data plane are identical to ``detector.inspect``
offline — including across a mid-stream fleet-wide hot reload, a shard
killed with SIGKILL, and the respawn that follows.
"""

import asyncio
import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.core import signature_set_to_json
from repro.ids import DeterministicRuleSet, PSigeneDetector, Rule
from repro.serve import (
    FleetConfig,
    FleetError,
    FleetSupervisor,
    GatewayConfig,
    StoreError,
    reuseport_available,
)
from repro.serve.fleet import _ShardServer

from tests.serve.client import ask, fetch, http, send_lines


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


def fleet_config(shards=2, **gateway):
    gateway.setdefault("queue_bound", 256)
    return FleetConfig(shards=shards, gateway=GatewayConfig(**gateway))


class TestFleetServing:
    def test_reuseport_or_prefork_available(self):
        # The fleet needs one of its two port-sharing mechanisms; on
        # Linux (CI) both exist.
        import multiprocessing

        assert reuseport_available() or (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def test_round_trip_matches_offline(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = supervisor.start()
            try:
                payloads = [
                    "id=1 union select password",
                    "q=hello world",
                    "a=UNION  SELECT 1",
                    "",
                ] * 5
                # Several connections so both shards see traffic.
                batches = await asyncio.gather(*(
                    send_lines(host, port, payloads) for _ in range(4)
                ))
            finally:
                supervisor.stop()
            offline = [toy_detector().inspect(p) for p in payloads]
            for responses in batches:
                for response, detection in zip(responses, offline):
                    assert response["alert"] == detection.alert
                    assert response["matched"] == [
                        int(s) for s in detection.matched_sids
                    ]
                    assert response["version"] == 1

        asyncio.run(scenario())

    def test_shard_data_plane_refuses_reload(self):
        """POST /reload on the shared data port must not split the
        fleet across generations — shards answer 403."""
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = supervisor.start()
            try:
                status, body = await http(
                    host, port, "POST", "/reload", "{}"
                )
                assert status == 403
                assert "supervisor" in body["error"]
                assert supervisor.version == 1
            finally:
                supervisor.stop()

        asyncio.run(scenario())

    def test_control_plane_endpoints(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = supervisor.start()
            chost, cport = supervisor.control_address
            try:
                await send_lines(
                    host, port, ["id=1 union select x", "b=2"]
                )
                status, health = await http(chost, cport, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["live"] == 2

                status, stats = await http(chost, cport, "GET", "/stats")
                assert status == 200
                assert stats["fleet"]["counters"]["inspected"] == 2
                assert stats["fleet"]["counters"]["alerted"] == 1
                assert set(stats["shards"]) == {"0", "1"}
                assert all(
                    info["version"] == 1
                    for info in stats["shards"].values()
                )

                status, shards = await http(chost, cport, "GET", "/shards")
                assert status == 200
                assert len(shards["shards"]) == 2
                assert all(s["serving"] for s in shards["shards"])

                status, body = await http(chost, cport, "GET", "/missing")
                assert status == 404
            finally:
                supervisor.stop()

        asyncio.run(scenario())

    def test_metrics_exposition_is_strictly_parseable(self):
        from repro.obs.prometheus import parse_exposition, sample_value

        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = supervisor.start()
            chost, cport = supervisor.control_address
            try:
                await send_lines(host, port, ["id=1 union select x"])
                status, text = await http(chost, cport, "GET", "/metrics")
                assert status == 200
                families = parse_exposition(text)
                # Fleet aggregate is the sum of the per-shard series.
                fleet = sample_value(
                    families, "repro_inspected_total", {"shard": "fleet"}
                )
                per_shard = sum(
                    sample_value(
                        families, "repro_inspected_total",
                        {"shard": str(index)},
                    )
                    for index in range(2)
                )
                assert fleet == per_shard == 1.0
                assert sample_value(families, "repro_fleet_shards") == 2.0
                assert (
                    sample_value(families, "repro_store_version") == 1.0
                )
                # Merged latency histogram carries the observation.
                assert (
                    sample_value(families, "repro_service_seconds_count")
                    == 1.0
                )
            finally:
                supervisor.stop()

        asyncio.run(scenario())

    def test_shed_policy_flows_to_shards(self):
        """A full shed-policy shard refuses with "queue full", counts
        every refusal, and keeps answering the rest."""
        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(),
                fleet_config(shards=1, queue_bound=2, policy="shed"),
            )
            host, port = supervisor.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # Flood more lines than the backlog holds, unanswered.
                lines = [f"q={index}" for index in range(100)]
                for line in lines:
                    writer.write(line.encode() + b"\n")
                await writer.drain()
                responses = []
                for _ in lines:
                    responses.append(
                        json.loads(await reader.readline())
                    )
                writer.close()
                await writer.wait_closed()
                stats = supervisor.stats()
            finally:
                supervisor.stop()
            shed = [r for r in responses if r.get("shed")]
            assert shed
            assert all("queue full" in r["error"] for r in shed)
            assert stats["fleet"]["counters"]["shed"] == len(shed)
            assert len(shed) < len(lines)

        asyncio.run(scenario())


class TestFleetControlPlane:
    def test_malformed_control_requests_get_400_and_are_counted(self):
        from repro.obs.prometheus import (
            CONTENT_TYPE,
            parse_exposition,
            sample_value,
        )
        from tests.serve.test_gateway_errors import raw_http

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=1)
            )
            supervisor.start()
            chost, cport = supervisor.control_address
            try:
                no_colon = await raw_http(
                    chost, cport,
                    b"GET /healthz HTTP/1.1\r\nthis is not a header\r\n\r\n",
                )
                payload_line = await raw_http(
                    chost, cport, b"id=1' union select 1\n"
                )
                metrics = await fetch(chost, cport, "GET", "/metrics")
                health = await http(chost, cport, "GET", "/healthz")
            finally:
                supervisor.stop()
            return no_colon, payload_line, metrics, health

        no_colon, payload_line, metrics, health = asyncio.run(scenario())
        status, body = no_colon
        assert status == 400
        assert "malformed header" in body["error"]
        status, body = payload_line
        assert status == 400
        assert "not an HTTP request line" in body["error"]
        status, content_type, body = metrics
        assert status == 200
        assert content_type == CONTENT_TYPE
        families = parse_exposition(body.decode())
        assert sample_value(
            families, "repro_protocol_errors_total", {"shard": "supervisor"}
        ) == 2.0
        # The control plane keeps answering.
        assert health[0] == 200 and health[1]["status"] == "ok"


    def test_a_late_reply_is_dropped(self, monkeypatch):
        """A shard that misses a command's deadline is left out of that
        answer, and the next conversation drops its late reply rather
        than take it for its own."""
        honest = _ShardServer._handle

        def slow_once(self, message):
            if message.get("cmd") == "stats" and not hasattr(self, "slowed"):
                self.slowed = True
                time.sleep(0.5)
            honest(self, message)

        monkeypatch.setattr(_ShardServer, "_handle", slow_once)

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=1)
            )
            host, port = supervisor.start()
            try:
                supervisor._TIMEOUTS = {
                    **FleetSupervisor._TIMEOUTS, "stats": 0.2,
                }
                first = supervisor.stats()
                del supervisor._TIMEOUTS  # the usual deadlines again
                # Answered after the shard's sleep, so after its late
                # reply went out.
                await send_lines(host, port, ["id=1 union select x"])
                second = supervisor.stats()
            finally:
                supervisor.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first["shards"] == {}
        assert second["shards"]["0"]["counters"]["inspected"] == 1

    def test_request_line_past_the_stream_limit_gets_400(self):
        from tests.serve.test_gateway_errors import raw_http

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=1)
            )
            supervisor.start()
            chost, cport = supervisor.control_address
            try:
                overlong = await raw_http(
                    chost, cport,
                    b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
                )
                health = await http(chost, cport, "GET", "/healthz")
            finally:
                supervisor.stop()
            return overlong, health, supervisor.telemetry.counter(
                "protocol_errors"
            )

        (status, body), health, errors = asyncio.run(scenario())
        assert status == 400
        assert "too long" in body["error"]
        assert errors == 1
        assert health[0] == 200 and health[1]["status"] == "ok"

    def test_control_400_survives_a_client_still_sending(self):
        from tests.serve.test_gateway_errors import send_past_the_answer

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=1)
            )
            supervisor.start()
            chost, cport = supervisor.control_address
            try:
                return await send_past_the_answer(
                    chost, cport, b"GET /" + b"a" * (300 * 1024),
                )
            finally:
                supervisor.stop()

        assert asyncio.run(scenario()).startswith(b"HTTP/1.1 400")


class TestFleetReload:
    @pytest.mark.smoke
    def test_midstream_reload_parity(self, small_signatures):
        """Offline/online parity across a fleet-wide two-phase reload
        racing live traffic: every verdict matches the offline engine
        no matter which shard or generation answered it."""
        from repro.conformance.verdict import (
            diff_verdicts,
            serial_verdicts,
            verdicts_from_responses,
        )
        from repro.serve.loadgen import replay
        from repro.serve.protocol import encode_line

        detector = PSigeneDetector(small_signatures)
        supervisor = FleetSupervisor(detector, fleet_config())
        payloads = [
            "id=1' union select 1,2,3-- -",
            "q=plain benign text",
            "name=alice&x=1 or 1=1",
        ] * 40
        reloads = []

        def reload():
            time.sleep(0.02)
            reloads.append(supervisor.reload_json(
                signature_set_to_json(small_signatures),
                source="midstream",
            ))

        host, port = supervisor.start()
        reloader = threading.Thread(target=reload)
        try:
            reloader.start()
            responses, _latencies, _duration = replay(
                host, port, [encode_line(p) for p in payloads],
                connections=4, window=8,
            )
            reloader.join(60)
            stats = supervisor.stats()
        finally:
            supervisor.stop()
        assert not reloader.is_alive()
        assert [result["version"] for result in reloads] == [2]
        # Every shard committed the new generation.
        assert all(
            info["version"] == 2 for info in stats["shards"].values()
        )
        divergences = diff_verdicts(
            "offline", serial_verdicts(detector, payloads),
            "fleet", verdicts_from_responses(responses, "fleet"),
            payloads,
        )
        assert divergences == [], divergences[0].describe()
        # Both generations answered (versions observed on the wire
        # are 1 and/or 2, never anything else).
        versions = {r["version"] for r in responses if r}
        assert versions <= {1, 2}

    def test_bad_candidate_rejected_everywhere(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = supervisor.start()
            chost, cport = supervisor.control_address
            try:
                with pytest.raises(StoreError) as excinfo:
                    supervisor.reload_json("{broken")
                assert excinfo.value.reason == "parse"
                assert supervisor.version == 1
                assert (
                    supervisor.telemetry.counter("reload_rejected") == 1
                )
                # The control plane reports the rejection structurally.
                status, body = await http(
                    chost, cport, "POST", "/reload", "[]"
                )
                assert status == 400
                assert body["rejected"] is True
                assert body["version"] == 1
                assert body["reason"]
                # The fleet keeps serving the original generation.
                responses = await send_lines(
                    host, port, ["id=1 union select x"]
                )
                assert responses[0]["version"] == 1
                assert responses[0]["alert"]
            finally:
                supervisor.stop()

        asyncio.run(scenario())

    def test_reload_is_atomic_per_generation(self, small_signatures):
        """Two sequential reloads land as generations 2 and 3 on every
        shard — no shard ever skips or repeats a generation."""
        async def scenario():
            detector = PSigeneDetector(small_signatures)
            supervisor = FleetSupervisor(detector, fleet_config())
            supervisor.start()
            try:
                text = signature_set_to_json(small_signatures)
                first = supervisor.reload_json(text)
                second = supervisor.reload_json(text)
                stats = supervisor.stats()
            finally:
                supervisor.stop()
            assert (first["version"], second["version"]) == (2, 3)
            assert all(
                info["version"] == 3 for info in stats["shards"].values()
            )

        asyncio.run(scenario())


async def resilient_ask(supervisor, payload):
    """One data-plane round-trip, retrying connection resets.

    With ``SO_REUSEPORT`` a connection racing a shard's death can land
    on the dying listener and get reset; the kernel drops the dead
    socket from the accept group, so a retry reaches a live shard —
    exactly what a real client does.
    """
    last: Exception | None = None
    for _ in range(40):
        try:
            return await ask(*supervisor.data_address, payload)
        except (
            ConnectionResetError,
            BrokenPipeError,
            json.JSONDecodeError,
            asyncio.IncompleteReadError,
        ) as exc:
            last = exc
            await asyncio.sleep(0.05)
    raise AssertionError(f"fleet stopped answering: {last!r}")


def _files(pid, fds):
    """The sockets and pipes among process ``pid``'s descriptors
    ``fds``, by their ``/proc`` link (which names the inode)."""
    files = set()
    for fd in fds:
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if link.startswith(("socket:", "pipe:")):
            files.add(link)
    return files


class TestFleetResilience:
    def test_shard_death_respawn_with_current_generation(
        self, small_signatures
    ):
        """SIGKILL one shard mid-stream: the fleet keeps answering, the
        monitor reaps and respawns the slot, the replacement passes the
        conformance spot-check and mounts the *current* generation."""
        async def scenario():
            detector = PSigeneDetector(small_signatures)
            supervisor = FleetSupervisor(detector, fleet_config())
            host, port = supervisor.start()
            try:
                # Move the fleet to generation 2 first, so the respawn
                # has to pick up a non-initial store version.
                supervisor.reload_json(
                    signature_set_to_json(small_signatures)
                )
                victim = supervisor.handles[0]
                os.kill(victim.pid, signal.SIGKILL)
                served = 0
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    response = await resilient_ask(
                        supervisor, "id=1' union select 1,2,3-- -"
                    )
                    assert response["alert"], response
                    served += 1
                    if victim.serving and victim.respawns == 1:
                        break
                    await asyncio.sleep(0.05)
                assert victim.respawns == 1
                assert victim.serving
                assert served > 0
                stats = supervisor.stats()
                assert all(
                    info["version"] == 2
                    for info in stats["shards"].values()
                )
                assert supervisor.telemetry.counter("respawns") == 1
            finally:
                supervisor.stop()

        asyncio.run(scenario())

    def test_a_respawned_shard_holds_no_control_connection(self):
        """A control connection open while a shard is respawned is
        answered and then closed: the new shard was forked with every
        descriptor of the supervisor's loop closed, so the client reads
        EOF at once rather than when that shard exits."""
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            supervisor.start()
            chost, cport = supervisor.control_address
            try:
                reader, writer = await asyncio.open_connection(chost, cport)
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                await writer.drain()
                await asyncio.sleep(0.2)  # accepted, half a request read
                victim = supervisor.handles[0]
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 15.0
                while not (victim.respawns == 1 and victim.serving):
                    assert time.monotonic() < deadline, "no respawn"
                    await asyncio.sleep(0.05)
                inherited = None
                if sys.platform.startswith("linux"):
                    # The new shard holds the write end of its own
                    # sentinel's pipe, and nothing else of the loop's.
                    held = _files(
                        os.getpid(),
                        supervisor._control.descriptors()
                        - {victim.process.sentinel},
                    )
                    assert held
                    inherited = held & _files(
                        victim.pid, os.listdir(f"/proc/{victim.pid}/fd")
                    )
                writer.write(b"Host: t\r\n\r\n")
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                await writer.wait_closed()
            finally:
                supervisor.stop()
            return answer, inherited

        answer, inherited = asyncio.run(scenario())
        assert answer.startswith(b"HTTP/1.1 200")
        assert not inherited

    def test_a_shard_that_fails_its_commit_is_respawned(
        self, small_signatures, monkeypatch
    ):
        """A shard that staged but cannot commit is killed, and its slot
        comes back in the generation the reload committed."""
        honest = _ShardServer._handle

        def wedged(self, message):
            if message.get("cmd") == "commit" and (
                self.boot.shard_id, self.boot.generation
            ) == (0, 1):
                self._reply(message, ok=False, error="wedged")
            else:
                honest(self, message)

        monkeypatch.setattr(_ShardServer, "_handle", wedged)

        async def scenario():
            supervisor = FleetSupervisor(
                PSigeneDetector(small_signatures), fleet_config()
            )
            supervisor.start()
            try:
                result = supervisor.reload_json(
                    signature_set_to_json(small_signatures)
                )
                victim = supervisor.handles[0]
                deadline = time.monotonic() + 15.0
                while not (victim.respawns == 1 and victim.serving):
                    assert time.monotonic() < deadline, "no respawn"
                    await asyncio.sleep(0.05)
                stats = supervisor.stats()
            finally:
                supervisor.stop()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert (result["version"], result["shards"]) == (2, 1)
        assert [info["version"] for info in stats["shards"].values()] == [
            2, 2,
        ]

    def test_stop_reaps_every_child(self):
        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=3)
            )
            supervisor.start()
            processes = [handle.process for handle in supervisor.handles]
            assert all(p.is_alive() for p in processes)
            supervisor.stop()
            assert all(not p.is_alive() for p in processes)
            # join() succeeded, so none of them is a zombie.
            assert all(p.exitcode is not None for p in processes)

        asyncio.run(scenario())

    def test_respawn_budget_exhausts(self, monkeypatch):
        """A slot that keeps dying is eventually left down while the
        rest of the fleet keeps serving."""
        monkeypatch.setattr("repro.serve.supervisor.MAX_RESPAWNS", 1)

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=2)
            )
            host, port = supervisor.start()
            try:
                victim = supervisor.handles[0]
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if victim.pid and victim.alive:
                        try:
                            os.kill(victim.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    if (
                        supervisor.telemetry.counter("respawn_exhausted")
                        and not victim.alive
                    ):
                        break
                    await asyncio.sleep(0.05)
                assert (
                    supervisor.telemetry.counter("respawn_exhausted") >= 1
                )
                # The surviving shard still answers.
                response = await resilient_ask(
                    supervisor, "id=1 union select x"
                )
                assert response["alert"]
                chost, cport = supervisor.control_address
                status, health = await http(chost, cport, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "degraded"
            finally:
                supervisor.stop()

        asyncio.run(scenario())


class TestFleetSpotCheck:
    @pytest.mark.parametrize("fault", ["short", "flipped"])
    def test_a_shard_that_answers_the_probes_wrong_never_joins(
        self, fault, monkeypatch
    ):
        """A shard whose spot-check reply drops the last probe's answer,
        or flips one alert, fails bring-up; the fork carries the patch
        into the shard."""
        honest = _ShardServer._selfcheck

        def faulty(self, payloads):
            answers = honest(self, payloads)
            if fault == "short":
                return answers[:-1]
            answers[0]["alert"] = not answers[0]["alert"]
            return answers

        monkeypatch.setattr(_ShardServer, "_selfcheck", faulty)

        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            with pytest.raises(FleetError, match="spot-check"):
                supervisor.start()
            assert not any(
                handle.process is not None and handle.process.is_alive()
                for handle in supervisor.handles
            )

        asyncio.run(scenario())
