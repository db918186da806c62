"""Online detection gateway: serve any detector behind TCP/HTTP.

The paper deploys pSigene signatures inside a live Bro IDS watching
production traffic (Section III-C); this package is that deployment
surface for the reproduction.  ``repro serve`` mounts a detector behind
a line-delimited TCP data plane plus an HTTP control plane
(``/healthz``, ``/stats``, ``/metrics``, ``/reload``, ``/inspect``),
with a versioned
hot-swappable signature store, bounded admission queues with
block/shed backpressure, and live telemetry.  ``repro serve
--shards N`` scales the same data plane across N worker processes on
one shared port under a supervising control plane
(:mod:`repro.serve.supervisor`) with atomic two-phase fleet reloads.
``repro loadgen`` replays scanner/benign traffic against either —
closed-loop for capacity, open-loop at a fixed offered rate for
overload behaviour — and checks alert parity with the offline engine.
See DESIGN.md §11 and §15.
"""

from repro._lazy import lazy_exports
from repro.serve.admission import (
    AdmissionController,
    BackpressurePolicy,
    QueueClosed,
    Shed,
)
from repro.serve.gateway import DetectionGateway, GatewayConfig
from repro.serve.store import SignatureStore, StoreError, StoreVersion
from repro.serve.telemetry import Telemetry, merge_raw_states

__all__ = [
    "AdmissionController",
    "BackpressurePolicy",
    "DetectionGateway",
    "FleetConfig",
    "FleetError",
    "FleetSupervisor",
    "GatewayConfig",
    "LoadReport",
    "PROBE_PAYLOADS",
    "QueueClosed",
    "Shed",
    "ShardBoot",
    "SignatureStore",
    "StoreError",
    "StoreVersion",
    "Telemetry",
    "build_load_trace",
    "format_report",
    "merge_raw_states",
    "replay",
    "reuseport_available",
    "run_loadgen",
]

# The fleet and the load driver (which loads the scanners and the
# evaluation code) load on first use: one gateway needs neither.
__getattr__ = lazy_exports(__name__, {
    "fleet": ("PROBE_PAYLOADS", "ShardBoot", "reuseport_available"),
    "loadgen": (
        "LoadReport", "build_load_trace", "format_report", "replay",
        "run_loadgen",
    ),
    "supervisor": ("FleetConfig", "FleetError", "FleetSupervisor"),
})
