"""Tests for ``repro obs dump`` and ``repro obs validate``."""

import json

import pytest

from repro.__main__ import main


class TestObsValidate:
    def _write(self, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_valid_manifest_exits_zero(self, tmp_path, capsys):
        from repro.obs.manifest import build_manifest

        path = self._write(tmp_path, build_manifest(
            seed=1, config={}, counts={"samples": 5},
            phases=[{
                "name": "pipeline.run", "depth": 0,
                "wall_s": 0.1, "cpu_s": 0.1, "attrs": {},
            }],
            git="abc",
        ))
        assert main(["obs", "validate", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK ")
        assert "pipeline.run" in out

    def test_invalid_manifest_exits_5(self, tmp_path, capsys):
        path = self._write(tmp_path, {"schema": 1, "seed": "nope"})
        assert main(["obs", "validate", path]) == 5
        assert capsys.readouterr().out.startswith("INVALID ")

    def test_missing_file_is_systemexit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "validate", str(tmp_path / "absent.json")])

    def test_unparseable_json_is_systemexit(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["obs", "validate", str(path)])


class TestObsDump:
    def test_dump_scrapes_live_gateway(self, capsys):
        """Boot a gateway on an ephemeral port on a thread, point
        ``repro obs dump`` at it, and check the dumped exposition
        parses."""
        from repro.ids import DeterministicRuleSet, Rule
        from repro.obs.prometheus import parse_exposition, sample_value
        from repro.serve import DetectionGateway, SignatureStore

        gateway = DetectionGateway(SignatureStore(DeterministicRuleSet(
            "toy", [Rule(1, "union", r"union\s+select")]
        )))
        host, port = gateway.start()
        try:
            code = main(["obs", "dump", "--host", host, "--port", str(port)])
        finally:
            gateway.stop()
        assert code == 0
        body = capsys.readouterr().out
        families = parse_exposition(body)
        assert sample_value(families, "repro_inspected_total") == 0.0
        assert sample_value(families, "repro_store_version") == 1.0

    def test_dump_unreachable_gateway_is_systemexit(self):
        with pytest.raises(SystemExit, match="cannot scrape"):
            main([
                "obs", "dump", "--port", "1",  # nothing listens there
                "--timeout", "0.5",
            ])
