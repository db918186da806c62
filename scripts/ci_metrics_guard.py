"""CI guard: scrape a gateway's and a fleet's ``/metrics``, fail on bad lines.

Runs the exact contract a Prometheus scraper depends on, end to end,
first for a single gateway and then for a 2-shard fleet:

1. start a :class:`~repro.serve.gateway.DetectionGateway` on an
   ephemeral port (then a :class:`~repro.serve.supervisor.FleetSupervisor`
   with two shards on one shared port),
2. push a few payloads through the line protocol so the counters move,
3. ``GET /metrics`` over a raw socket (the fleet's control port),
4. strict-parse the exposition (:func:`repro.obs.prometheus.parse_exposition`
   raises on any malformed line), and
5. cross-check the parsed counters against the ``/stats`` JSON: the
   gateway's ``inspected`` and ``alerted``, and every counter of the
   fleet's ``shard="fleet"`` and ``shard="<n>"`` series against
   ``fleet.counters`` and ``shards[<n>].counters``.

Exits non-zero on any failure, with the offending detail on stderr.

Usage: ``PYTHONPATH=src python scripts/ci_metrics_guard.py``
"""

from __future__ import annotations

import json
import socket
import sys

PAYLOADS = ["id=1' union select 1", "q=hello", "page=2"]


def _http(host: str, port: int, path: str) -> tuple[int, str]:
    """Minimal GET; returns (status, body)."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: ci\r\n\r\n".encode())
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    header, _, body = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), body.decode()


def _send_lines(host: str, port: int) -> None:
    """Send :data:`PAYLOADS` on one connection, reading each answer."""
    with socket.create_connection(
        (host, port), timeout=30
    ) as sock, sock.makefile("rb") as answers:
        for payload in PAYLOADS:
            sock.sendall(payload.encode() + b"\n")
            answers.readline()


def _scrape(host: str, port: int) -> tuple[dict, dict]:
    """Strict-parsed ``/metrics`` and decoded ``/stats`` of one port."""
    from repro.obs.prometheus import parse_exposition

    status, body = _http(host, port, "/metrics")
    if status != 200:
        raise AssertionError(f"/metrics returned HTTP {status}")
    families = parse_exposition(body)  # raises on malformed lines
    if not families:
        raise AssertionError("/metrics exposition is empty")
    stats_status, stats_body = _http(host, port, "/stats")
    if stats_status != 200:
        raise AssertionError(f"/stats returned HTTP {stats_status}")
    return families, json.loads(stats_body)


def _detector():
    from repro.ids import DeterministicRuleSet, Rule

    return DeterministicRuleSet(
        "ci-guard", [Rule(1, "union", r"union\s+select")]
    )


def _check_inspected(counters: dict, expected: int) -> None:
    if counters["inspected"] != expected:
        raise AssertionError(
            f"expected {expected} inspections, "
            f"counted {counters['inspected']}"
        )


def _gateway() -> str:
    from repro.obs.prometheus import sample_value
    from repro.serve import DetectionGateway, SignatureStore

    gateway = DetectionGateway(SignatureStore(_detector()))
    host, port = gateway.start()
    try:
        _send_lines(host, port)
        families, stats = _scrape(host, port)
    finally:
        gateway.stop()
    counters = stats["counters"]
    for short_name in ("inspected", "alerted"):
        exposed = sample_value(families, f"repro_{short_name}_total")
        if exposed != counters[short_name]:
            raise AssertionError(
                f"{short_name}: /metrics says {exposed}, "
                f"/stats says {counters[short_name]}"
            )
    _check_inspected(counters, len(PAYLOADS))
    return (
        f"metrics guard OK: {len(families)} families, "
        f"{sum(len(s) for s in families.values())} samples, "
        f"counters agree with /stats"
    )


def _fleet() -> str:
    from repro.serve import FleetConfig, FleetSupervisor

    supervisor = FleetSupervisor(_detector(), FleetConfig(shards=2))
    host, port = supervisor.start()
    try:
        # Several connections, so that the kernel hands both shards some.
        for _ in range(4):
            _send_lines(host, port)
        families, stats = _scrape(*supervisor.control_address)
    finally:
        supervisor.stop()
    expected = {"fleet": stats["fleet"]["counters"]}
    for shard, info in stats["shards"].items():
        expected[shard] = info["counters"]
    exposed: dict[str, dict[str, float]] = {shard: {} for shard in expected}
    for samples in families.values():
        for sample in samples:
            shard = sample.labels.get("shard")
            if shard in exposed and sample.name.endswith("_total"):
                exposed[shard][sample.name] = sample.value
    for shard, counters in expected.items():
        wanted = {
            f"repro_{name}_total": float(value)
            for name, value in counters.items()
        }
        if exposed[shard] != wanted:
            raise AssertionError(
                f'shard="{shard}": /metrics says {exposed[shard]}, '
                f"/stats says {wanted}"
            )
    if sorted(expected) != ["0", "1", "fleet"]:
        raise AssertionError(
            f"expected two shards, /stats has {sorted(expected)}"
        )
    _check_inspected(expected["fleet"], 4 * len(PAYLOADS))
    return (
        f"fleet metrics guard OK: {len(families)} families, "
        f"{sum(len(c) for c in expected.values())} counters of "
        f"{len(expected)} series sets agree with /stats"
    )


def main() -> int:
    """Run the guard; returns a process exit code."""
    try:
        for scenario in (_gateway, _fleet):
            print(scenario())
    except Exception as error:  # noqa: BLE001 - CI wants any failure loud
        print(f"metrics guard FAILED: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
