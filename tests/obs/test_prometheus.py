"""Exposition round-trip tests: render → strict-parse → values agree.

Includes the acceptance-criteria check that the gateway's ``/metrics``
Prometheus exposition and its ``/stats`` JSON report the same counters —
they are two renderings of one set of instruments.
"""

import asyncio
import json

import pytest

from repro.obs.prometheus import (
    CONTENT_TYPE,
    ExpositionError,
    parse_exposition,
    render_exposition,
    sample_value,
)
from repro.obs.registry import MetricsRegistry


def rendered_registry():
    registry = MetricsRegistry()
    registry.counter(
        "repro_a_total", "A counter.", labels={"feature": 'kw "q"\\n'}
    ).inc(3)
    registry.counter("repro_a_total", "A counter.").inc(1)
    registry.gauge("repro_depth", "A gauge.").set(2.5)
    histogram = registry.histogram("repro_lat_seconds", "A histogram.")
    for value in (0.001, 0.020, 0.020, 3.0):
        histogram.observe(value)
    return registry


class TestRoundTrip:
    def test_values_survive_render_and_parse(self):
        registry = rendered_registry()
        families = parse_exposition(render_exposition(registry))
        assert sample_value(
            families, "repro_a_total", {"feature": 'kw "q"\\n'}
        ) == 3.0
        assert sample_value(families, "repro_a_total") == 1.0
        assert sample_value(families, "repro_depth") == 2.5
        assert sample_value(families, "repro_lat_seconds_count") == 4.0
        assert sample_value(
            families, "repro_lat_seconds_sum"
        ) == pytest.approx(3.041)

    def test_histogram_buckets_cumulative_to_count(self):
        families = parse_exposition(
            render_exposition(rendered_registry())
        )
        buckets = [
            s for s in families["repro_lat_seconds"]
            if s.name == "repro_lat_seconds_bucket"
        ]
        values = [s.value for s in buckets]
        assert values == sorted(values)
        assert buckets[-1].labels["le"] == "+Inf"
        assert buckets[-1].value == 4.0

    def test_exposition_ends_with_newline_and_types(self):
        text = render_exposition(rendered_registry())
        assert text.endswith("\n")
        assert "# TYPE repro_a_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        # One TYPE line per family, even with multiple labeled series.
        assert text.count("# TYPE repro_a_total") == 1

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricsRegistry()) == ""
        assert parse_exposition("") == {}


class TestStrictParser:
    def test_missing_trailing_newline_rejected(self):
        with pytest.raises(ExpositionError, match="newline"):
            parse_exposition("# TYPE a counter\na 1")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ExpositionError, match="no TYPE"):
            parse_exposition("orphan 1\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ExpositionError, match="bad TYPE"):
            parse_exposition("# TYPE a exotic\na 1\n")

    def test_malformed_label_rejected(self):
        with pytest.raises(ExpositionError, match="malformed label"):
            parse_exposition('# TYPE a counter\na{k=unquoted} 1\n')

    def test_duplicate_series_rejected(self):
        with pytest.raises(ExpositionError, match="duplicate series"):
            parse_exposition("# TYPE a counter\na 1\na 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ExpositionError, match="bad sample value"):
            parse_exposition("# TYPE a counter\na one\n")

    def test_infinity_spellings_accepted(self):
        families = parse_exposition("# TYPE a gauge\na +Inf\n")
        assert sample_value(families, "a") == float("inf")


class TestGatewayMetricsEndpoint:
    """Scrape a live gateway; /metrics must agree with /stats."""

    def _scenario(self):
        from repro.ids import DeterministicRuleSet, Rule
        from repro.serve import DetectionGateway, SignatureStore
        from tests.serve.client import fetch, send_lines

        async def run():
            detector = DeterministicRuleSet(
                "toy", [Rule(1, "union", r"union\s+select")]
            )
            gateway = DetectionGateway(SignatureStore(detector))
            host, port = gateway.start()
            await send_lines(
                host, port, ["id=1' union select 1", "q=hi", "q=ok"]
            )
            stats_status, _, stats_body = await fetch(
                host, port, "GET", "/stats"
            )
            metrics_status, content_type, metrics_body = await fetch(
                host, port, "GET", "/metrics"
            )
            gateway.stop()
            return (
                stats_status, json.loads(stats_body),
                metrics_status, content_type, metrics_body.decode(),
            )

        return asyncio.run(run())

    def test_metrics_agree_with_stats(self):
        (
            stats_status, stats,
            metrics_status, content_type, body,
        ) = self._scenario()
        assert stats_status == 200 and metrics_status == 200
        assert content_type == CONTENT_TYPE
        families = parse_exposition(body)  # strict: malformed lines raise
        counters = stats["counters"]
        assert sample_value(
            families, "repro_inspected_total"
        ) == counters["inspected"] == 3
        assert sample_value(
            families, "repro_alerted_total"
        ) == counters["alerted"] == 1
        assert sample_value(
            families, "repro_service_seconds_count"
        ) == stats["latency"]["service"]["count"]

    def test_live_gauges_exported(self):
        *_, body = self._scenario()
        families = parse_exposition(body)
        assert sample_value(families, "repro_store_version") == 1.0
        assert sample_value(families, "repro_queue_depth") == 0.0
