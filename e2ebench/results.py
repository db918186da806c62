"""Metric names, units and the printed result of one run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Gated end-to-end metrics (printed with ``--trace 0``), name -> unit.
#: The last three repeated within a tenth across sets of ten runs on a
#: shared 2-vCPU host; ``setup_s``, which every benchmark gates, is timed
#: by CPU clocks and is a median over samples spread across the run.
#: See README.md for the metrics that did not repeat.
END_TO_END = {
    "setup_s": "s",
    "slo_attainment": "fraction",
    "tpr": "fraction",
    "peak_rss_mb": "MiB",
}

#: Printed beside the gated metrics but not gated.  Every CPU-time and
#: latency figure moved by up to a third between sets of runs as host
#: contention (steal) came and went; ``fpr`` is 0 on some seeds; a
#: gateway run trains only once.  ``train-eval`` prints ``train_s``,
#: ``fpr`` and ``score_rps``; the gateway workloads print the rest.
REPORTED = {
    "cpu_us_per_req": "us",
    "saturated_cpu_us_per_req": "us",
    "latency_p50_ms": "ms",
    "train_s": "s",
    "fpr": "fraction",
    "closed_loop_rps": "req/s",
    "score_rps": "req/s",
}

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.
PER_LAYER = {
    "serve.overhead_us": "us",
    "serve.service_us": "us",
    "serve.queue_wait_us": "us",
    "serve.saturated_service_us": "us",
    "serve.saturated_queue_wait_us": "us",
    "serve.inspected": "count",
    "serve.failed": "count",
    "serve.latency_p99_ms": "ms",
    "serve.latency_samples": "count",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.bytes_per_req": "B",
    "surfaces.extract_us": "us",
    "surfaces.units_per_req": "count",
    "normalize.us_per_unit": "us",
    "normalize.repeat_share": "fraction",
    "match.count_us_per_unit": "us",
    "match.finditer_per_unit": "count",
    "match.ascii_fallback_share": "fraction",
    "match.dfa_overflows": "count",
    "match.finditer_yield": "fraction",
    "core.score_us_per_unit": "us",
    "ids.request_us": "us",
    "ids.closure": "ratio",
    "ids.alert_share": "fraction",
    "obs.record_us_per_req": "us",
    "crawler.collect_s": "s",
    "crawler.dedup_yield": "fraction",
    "features.extract_s": "s",
    "features.us_per_payload": "us",
    "features.kept": "count",
    "cluster.bicluster_s": "s",
    "cluster.prototypes": "count",
    "learn.generalize_s": "s",
    "learn.signatures": "count",
    "parallel.run_batch_s": "s",
    "parallel.fanout_speedup": "ratio",
    "pipeline.closure": "ratio",
    "generator.late_p99_ms": "ms",
    "generator.busy_us_per_req": "us",
}


@dataclass
class Result:
    """Everything one run prints."""

    workload: str
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    overhead: dict = field(default_factory=dict)
    census: dict = field(default_factory=dict)
    matchers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: object = None

    def fail(self, reason: str, count: int = 1) -> None:
        """Record *count* failed operations (a wrong answer included)."""
        self.problems.append(reason)
        self.failed += count

    def lines(self, trace: bool) -> list[str]:
        out = [f"workload: {self.workload}"]
        out.append("census: " + json.dumps(self.census, sort_keys=True))
        for name, description in self.matchers.items():
            out.append(f"matcher ({name}): {description}")
        for name, unit in {**END_TO_END, **REPORTED}.items():
            if name in self.e2e:
                out.append(f"{name} = {self.e2e[name]:.6g} {unit}")
        if trace:
            for name, unit in PER_LAYER.items():
                out.append(f"{name} = {self.layer[name]:.6g} {unit}")
            units = {**END_TO_END, **REPORTED}
            for name, delta in self.overhead.items():
                out.append(f"tracing overhead {name}: {delta:+.6g} {units[name]}")
        out.extend(self.notes)
        out.append(f"attempted = {self.attempted}, failed = {self.failed}")
        out.extend(f"FAILED: {problem}" for problem in self.problems)
        return out

    def json_line(self, trace: bool) -> str:
        names = PER_LAYER if trace else END_TO_END
        source = self.layer if trace else self.e2e
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(source[name]), "unit": unit}
                for name, unit in names.items()
            },
        })
