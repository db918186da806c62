"""Admission control: a bounded backlog and its full-backlog policy.

A gateway in front of "heavy traffic from millions of users" (ROADMAP)
must decide what happens when offered load exceeds detector throughput.
The controller counts the requests admitted to the gateway's backlog
and not yet answered, and decides synchronously whether the next one
joins.  Two policies are supported:

- ``block``: a caller waits while :attr:`AdmissionController.must_wait`
  holds (the backlog is at its bound).  The gateway's readers then stop
  reading until the next drain, which propagates backpressure all the
  way to the TCP socket (the kernel window fills, the client slows
  down).
- ``shed``: a full backlog refuses the request immediately; the caller
  answers 503/``"shed": true`` and the ``shed`` counter increments.
  Latency of admitted requests stays bounded at the cost of refusing
  some — the classic load-shedding trade.

Each fleet shard owns its own controller, so the bounds above are
*per-shard*: a fleet of N shards at queue bound B admits up to N×B
requests before any shard sheds, and one slow shard cannot stall its
siblings' backlogs.

Shutdown is a drain, not an abort: :meth:`AdmissionController.close`
stops admitting, and the gateway answers what was already admitted
before it closes its connections.
"""

from __future__ import annotations

import enum

from repro.serve.telemetry import Telemetry

__all__ = [
    "AdmissionController",
    "BackpressurePolicy",
    "QueueClosed",
    "Shed",
]

class BackpressurePolicy(str, enum.Enum):
    """What a full backlog does to the next request."""

    BLOCK = "block"
    SHED = "shed"


class Shed(Exception):
    """Raised by :meth:`AdmissionController.admit` when the request was
    refused (not admitted)."""


class QueueClosed(Exception):
    """Raised by admit after drain has begun; no new work is admitted."""


class AdmissionController:
    """Counts a bounded backlog and applies the full-backlog policy.

    Args:
        queue_bound: maximum admitted, unanswered requests.
        policy: full-backlog behaviour.
        telemetry: counter sink (``shed`` increments happen here so every
            admission path — TCP, HTTP, in-process — counts alike).
    """

    def __init__(
        self,
        *,
        queue_bound: int = 1024,
        policy: BackpressurePolicy | str = BackpressurePolicy.BLOCK,
        telemetry: Telemetry | None = None,
    ) -> None:
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        self.queue_bound = queue_bound
        self.policy = BackpressurePolicy(policy)
        self.telemetry = telemetry
        self._depth = 0
        self._closed = False

    @property
    def depth(self) -> int:
        """Requests currently admitted and not yet answered."""
        return self._depth

    @property
    def closed(self) -> bool:
        """True once drain has begun."""
        return self._closed

    @property
    def must_wait(self) -> bool:
        """True when a ``block`` caller must wait before :meth:`admit`:
        the backlog holds ``queue_bound`` requests."""
        return (
            self.policy is BackpressurePolicy.BLOCK
            and self._depth >= self.queue_bound
        )

    def admit(self) -> None:
        """Count one request into the backlog, or refuse it.

        Raises:
            QueueClosed: drain already started.
            Shed: the backlog is full (under ``block`` too, for a caller
                that did not wait while :attr:`must_wait`).
        """
        if self._closed:
            raise QueueClosed("gateway is draining")
        if self._depth >= self.queue_bound:
            if self.telemetry is not None:
                self.telemetry.increment("shed")
            raise Shed(f"queue full ({self.queue_bound} waiting)")
        self._depth += 1

    def release(self, count: int) -> None:
        """Mark ``count`` admitted requests answered."""
        self._depth -= count

    def close(self) -> None:
        """Stop admitting; already-admitted requests are still answered."""
        self._closed = True
