"""Sharded live-TCP conformance: the fleet against the serial baseline.

The acceptance claim of DESIGN.md §15: verdicts through an N-shard
fleet on one shared port are bit-identical to ``detector.inspect``
offline, including while a two-phase hot reload races the replay.
"""

import multiprocessing

import pytest

from repro.conformance import (
    Oracle,
    ShardedGatewayPath,
    default_paths,
    format_report,
)
from repro.ids import DeterministicRuleSet, PSigeneDetector, Rule


def toy_detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


PAYLOADS = [
    "id=1' union select 1,2,3-- -",
    "q=hello world",
    "",
    "a=UNION  SELECT 1",
    "search=union+square+hotels",
    "id=1 AND 1=1",
] * 10


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet paths need the fork start method",
)


class TestSupportsGating:
    def test_reload_variant_needs_signature_set(self):
        path = ShardedGatewayPath(shards=2, midstream_reload=True)
        if "fork" not in multiprocessing.get_all_start_methods():
            assert not path.supports(toy_detector())
            return
        # A rule set has no serializable SignatureSet to re-deploy.
        assert not path.supports(toy_detector())

    @needs_fork
    def test_plain_variant_supports_any_detector(self):
        assert ShardedGatewayPath(shards=2).supports(toy_detector())

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            ShardedGatewayPath(shards=0)

    def test_names_distinguish_variants(self):
        assert ShardedGatewayPath(shards=2).name == "fleet-s2"
        names = {
            path.name
            for path in default_paths(fleet=True, fleet_shards=2)
        }
        assert "fleet-s2" in names
        assert "fleet-s2-reload" in names
        assert "fleet-s2" not in {
            path.name for path in default_paths(fleet=False)
        }


class TestShardedConformance:
    @needs_fork
    def test_fleet_matches_serial_baseline(self):
        report = Oracle(
            toy_detector(),
            paths=[ShardedGatewayPath(shards=2)],
            check_extraction=False,
        ).run(PAYLOADS)
        assert report.ok, format_report(report)
        assert report.divergences == []

    @needs_fork
    @pytest.mark.smoke
    def test_fleet_midstream_reload_matches_serial(self, small_signatures):
        """Zero divergences even while the replay races a fleet-wide
        two-phase reload — no matter which generation answered."""
        detector = PSigeneDetector(small_signatures)
        report = Oracle(
            detector,
            paths=[
                ShardedGatewayPath(shards=2),
                ShardedGatewayPath(shards=2, midstream_reload=True),
            ],
            check_extraction=False,
        ).run(PAYLOADS)
        assert report.ok, format_report(report)
        assert report.divergences == []
        assert set(report.paths) >= {"fleet-s2", "fleet-s2-reload"}
