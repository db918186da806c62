"""Tests for admission control: policies, shedding, drain."""

import asyncio
import logging
import time

import pytest

from repro.ids import DeterministicRuleSet, Rule
from repro.serve import (
    AdmissionController,
    BackpressurePolicy,
    DetectionGateway,
    GatewayConfig,
    QueueClosed,
    Shed,
    SignatureStore,
    Telemetry,
)


def toy_gateway(**config):
    return DetectionGateway(
        SignatureStore(DeterministicRuleSet(
            "toy", [Rule(1, "union", r"union\s+select")]
        )),
        GatewayConfig(**config),
    )


class TestPolicies:
    def test_policy_accepts_strings(self):
        controller = AdmissionController(policy="shed")
        assert controller.policy is BackpressurePolicy.SHED

    def test_policy_is_block_or_shed(self):
        assert [policy.value for policy in BackpressurePolicy] == [
            "block", "shed",
        ]
        with pytest.raises(ValueError):
            AdmissionController(policy="cost")

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_bound=0)

    def test_shed_on_full_queue(self):
        telemetry = Telemetry()
        controller = AdmissionController(
            queue_bound=2, policy="shed", telemetry=telemetry
        )
        controller.admit()
        controller.admit()
        assert not controller.must_wait  # shed refuses, it never waits
        with pytest.raises(Shed):
            controller.admit()
        assert telemetry.counter("shed") == 1
        assert controller.depth == 2

    def test_block_waits_for_space(self):
        controller = AdmissionController(queue_bound=1, policy="block")
        controller.admit()
        assert controller.must_wait  # a block caller waits for a drain
        controller.release(1)  # the drain answered it
        assert not controller.must_wait
        controller.admit()  # space opened, second request admitted
        assert controller.depth == 1


class TestDrain:
    def test_submit_after_close_raises(self):
        controller = AdmissionController()
        controller.close()
        assert controller.closed
        with pytest.raises(QueueClosed):
            controller.admit()
        assert controller.depth == 0

    def test_drain_waits_for_the_backlog(self):
        async def scenario():
            gateway = toy_gateway()
            await gateway.start()
            pending = asyncio.ensure_future(
                gateway.inspect("id=1' union select 1")
            )
            await asyncio.sleep(0)  # admitted; its drain step not yet run
            depth = gateway.admission.depth
            drained = await gateway.stop()
            return depth, drained, await pending

        depth, drained, answer = asyncio.run(scenario())
        assert depth == 1
        assert drained
        assert answer["alert"] is True

    def test_drain_timeout(self, monkeypatch):
        monkeypatch.setattr("repro.serve.gateway.DRAIN_TIMEOUT_S", 0.01)

        async def scenario():
            gateway = toy_gateway()
            # A drain step that never answers: the backlog cannot empty.
            monkeypatch.setattr(gateway, "_drain", lambda: None)
            await gateway.start()
            pending = asyncio.ensure_future(gateway.inspect("never-served"))
            await asyncio.sleep(0)
            drained = await gateway.stop()
            pending.cancel()
            return drained, gateway.admission

        drained, admission = asyncio.run(scenario())
        assert not drained
        assert admission.closed
        assert admission.depth == 1


    def test_stop_waits_for_an_idle_connection(self, caplog):
        # A client still connected when stop() returns: its handler must
        # be finished by then, or asyncio.run's teardown cancels it and
        # asyncio logs the cancellation as an error.
        async def scenario():
            gateway = toy_gateway()
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"q=1\n")
            await writer.drain()
            await reader.readline()
            drained = await gateway.stop()
            writer.close()  # no await: the loop ends right after stop()
            return drained

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            drained = asyncio.run(scenario())
        assert drained
        assert caplog.records == []

    def test_stop_cancels_a_handler_blocked_past_the_deadline(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr("repro.serve.gateway.DRAIN_TIMEOUT_S", 0.2)

        async def scenario():
            gateway = toy_gateway()
            # A drain step that never answers: the handler waits for its
            # unanswered request until stop() gives up on it.
            monkeypatch.setattr(gateway, "_drain", lambda: None)
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"never-served\n")
            await writer.drain()
            while not gateway.admission.depth:
                await asyncio.sleep(0.01)
            started = time.monotonic()
            drained = await gateway.stop()
            elapsed = time.monotonic() - started
            writer.close()
            return drained, elapsed, gateway._connections

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            drained, elapsed, connections = asyncio.run(scenario())
        assert not drained
        assert elapsed < 5.0
        assert connections == {}
        assert caplog.records == []
