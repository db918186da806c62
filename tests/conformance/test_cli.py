"""The ``repro conform`` command line: run, record, diff."""

import json
import re

import pytest

from repro.__main__ import main
from repro.core import signature_set_to_json


@pytest.fixture(scope="module")
def signature_file(small_signatures, tmp_path_factory):
    path = tmp_path_factory.mktemp("conform-cli") / "signatures.json"
    path.write_text(signature_set_to_json(small_signatures))
    return str(path)


class TestConformRun:
    @pytest.mark.smoke
    def test_conformant_run_exits_0(self, signature_file, capsys):
        code = main([
            "conform", "run", "-s", signature_file, "--budget", "small",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        # Both the mounted detector and the Perdisci baseline self-check.
        assert out.count("CONFORMANT") == 2
        assert "divergences=0" in out
        assert "gateway" in out and "batch-w8" in out

    def test_no_perdisci_skips_the_baseline(self, signature_file, capsys):
        code = main([
            "conform", "run", "-s", signature_file, "--no-perdisci",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("CONFORMANT") == 1


    def test_path_selection_applies_to_both_detectors(
        self, signature_file, capsys
    ):
        code = main([
            "conform", "run", "-s", signature_file,
            "--path", "serial-legacy", "--path", "fleet-s2-reload",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        psigene, perdisci = re.findall(r"paths=(\d+)", out)
        # pSigene runs serial + both selections; Perdisci has no
        # SignatureSet to re-deploy, so the oracle skips the reload path
        # exactly as it does on the default list.
        assert (psigene, perdisci) == ("3", "2")
        assert "fleet-s2 " not in out and "gateway" not in out


class TestConformRecordAndDiff:
    @pytest.fixture(scope="class")
    def recorded(self, signature_file, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "small.jsonl"
        code = main([
            "conform", "record", "-s", signature_file,
            "-o", str(path),
        ])
        assert code == 0
        return path

    def test_record_writes_a_valid_snapshot(self, recorded):
        lines = recorded.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "repro-conformance-golden"
        assert meta["n"] == len(lines) - 1
        assert meta["source"].startswith("file:")

    def test_diff_against_fresh_recording_is_clean(
        self, signature_file, recorded, capsys
    ):
        code = main([
            "conform", "diff", "-s", signature_file, str(recorded),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "GOLDEN OK" in out

    def test_tampered_snapshot_exits_6(
        self, signature_file, recorded, tmp_path, capsys
    ):
        lines = recorded.read_text().splitlines()
        # Flip the first recorded verdict.
        record = json.loads(lines[1])
        record["alert"] = not record["alert"]
        record["fired"] = []
        lines[1] = json.dumps(record, sort_keys=True, ensure_ascii=False)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")

        code = main([
            "conform", "diff", "-s", signature_file, str(tampered),
        ])
        out = capsys.readouterr().out
        assert code == 6
        assert "GOLDEN DIVERGENT" in out
        assert "alert" in out

    def test_missing_snapshot_is_a_clean_error(self, signature_file):
        with pytest.raises(SystemExit, match="not found"):
            main([
                "conform", "diff", "-s", signature_file,
                "/nonexistent/golden.jsonl",
            ])

    def test_corrupt_snapshot_is_a_clean_error(
        self, signature_file, tmp_path
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(SystemExit, match="bad meta"):
            main(["conform", "diff", "-s", signature_file, str(bad)])
