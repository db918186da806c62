"""Tests for the ``python -m repro`` command line."""

import io
import json
import os
import re

import pytest

from repro.__main__ import build_parser, main


def score_lines(capsys):
    """Parsed (verdict, score, payload) triples from score output."""
    out = capsys.readouterr().out
    rows = []
    for line in out.strip().splitlines():
        match = re.match(
            r"\[(ALERT|pass )\] p=([0-9.]+)"
            r"(?: signatures=\[[^\]]*\])?(?:  (.*))?$",
            line,
        )
        assert match, f"unparseable score line: {line!r}"
        rows.append(
            (match.group(1), float(match.group(2)), match.group(3) or "")
        )
    return rows


class TestTrainAndScore:
    @pytest.fixture(scope="class")
    def signature_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "signatures.json"
        code = main([
            "train", "-o", str(path), "--samples", "900",
            "--benign", "2500", "--max-cluster-rows", "700",
        ])
        assert code == 0
        return str(path)

    def test_train_writes_valid_json(self, signature_file):
        with open(signature_file) as handle:
            data = json.load(handle)
        assert data["schema"] == 1
        assert data["signatures"]

    def test_score_attack_exits_3(self, signature_file, capsys):
        code = main([
            "score", "-s", signature_file,
            "id=1' union select 1,2,3-- -",
        ])
        assert code == 3
        assert "ALERT" in capsys.readouterr().out

    def test_score_benign_exits_0(self, signature_file, capsys):
        code = main([
            "score", "-s", signature_file, "course=cs101&term=fall2012",
        ])
        assert code == 0
        assert "pass" in capsys.readouterr().out


class TestScoreStdin:
    ATTACK = "id=1' union select 1,2,3-- -"
    BENIGN = "course=cs101&term=fall2012"

    @pytest.fixture(scope="class")
    def signature_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-stdin") / "signatures.json"
        code = main([
            "train", "-o", str(path), "--samples", "900",
            "--benign", "2500", "--max-cluster-rows", "700",
        ])
        assert code == 0
        return str(path)

    def test_crlf_stdin_matches_argv(
        self, signature_file, capsys, monkeypatch
    ):
        """CRLF-terminated stdin (Windows pipes, curl output) must score
        identically to argv payloads — a stray \\r inside the payload
        changes normalization."""
        code_argv = main(["score", "-s", signature_file, self.ATTACK])
        argv_rows = score_lines(capsys)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{self.ATTACK}\r\n")
        )
        code_stdin = main(["score", "-s", signature_file])
        stdin_rows = score_lines(capsys)
        assert code_stdin == code_argv == 3
        assert stdin_rows == argv_rows

    def test_lf_stdin_unchanged(self, signature_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(f"{self.ATTACK}\n{self.BENIGN}\n"),
        )
        code = main(["score", "-s", signature_file])
        rows = score_lines(capsys)
        assert code == 3
        assert [r[0] for r in rows] == ["ALERT", "pass "]
        assert [r[2] for r in rows] == [self.ATTACK, self.BENIGN]

    def test_serial_and_batch_agree(self, signature_file, capsys):
        """Exit code and every printed score must be identical through
        the serial (workers=1) and batched (workers>1) paths."""
        payloads = [
            self.ATTACK,
            self.BENIGN,
            "q=robert'); drop table students;--",
            "page=3&sort=name",
            "",
        ]
        code_serial = main(
            ["score", "-s", signature_file, "--workers", "1"] + payloads
        )
        serial_rows = score_lines(capsys)
        code_batch = main(
            ["score", "-s", signature_file, "--workers", "2"] + payloads
        )
        batch_rows = score_lines(capsys)
        assert code_serial == code_batch == 3
        assert serial_rows == batch_rows


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_epilog_lists_commands(self):
        help_text = build_parser().format_help()
        for command in (
            "train", "score", "crawl", "eval", "serve", "loadgen",
        ):
            assert re.search(
                rf"^  {command}\s+\S", help_text, re.MULTILINE
            ), f"epilog missing command {command!r}"


class TestCrawl:
    def test_crawl_prints_stats(self, capsys):
        code = main(["crawl", "--samples", "120", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pages fetched" in out
        assert "unique samples" in out


class TestLoadgenCommand:
    @pytest.mark.smoke
    def test_loadgen_against_in_process_gateway(self, capsys):
        code = main([
            "loadgen", "--detector", "modsecurity",
            "--requests", "120", "--connections", "2", "--window", "4",
            "--benign", "40", "--vulnerabilities", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PARITY" in out
        assert "throughput" in out

    def test_rate_and_slo_apply_to_the_in_process_gateway(self, capsys):
        code = main([
            "loadgen", "--detector", "modsecurity",
            "--requests", "120", "--benign", "40", "--vulnerabilities", "2",
            "--rate", "2000", "--slo-ms", "40",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "in-process gateway" in out
        assert "offered=2,000 req/s (open loop)" in out
        assert "slo<= 40ms attainment=" in out

    def test_framed_surfaces_combine_with_shards(self, capsys):
        code = main([
            "loadgen", "--detector", "modsecurity",
            "--framed", "--surfaces", "all", "--shards", "2",
            "--requests", "120", "--benign", "40", "--vulnerabilities", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "shards=2" in out
        assert "PARITY: 120 compared" in out

    def test_psigene_requires_signature_file(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--detector", "psigene", "--requests", "10"])


class TestSignatureFileErrors:
    """A missing or malformed ``-s`` file is one clean line, not a traceback."""

    @pytest.fixture(autouse=True)
    def _restore_environment(self, monkeypatch):
        # `serve` sets OPENBLAS_NUM_THREADS for its own process; undo it
        # here so later tests' subprocesses see the original environment.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @pytest.mark.parametrize("command", [
        ["serve", "--port", "0"], ["score", "course=cs101"],
    ], ids=["serve", "score"])
    @pytest.mark.parametrize("content, reason", [
        ('{"bad": 1}', "unsupported schema None"),
        ("not json", "not valid JSON"),
        ("[]", "top level is a JSON list"),
        ('{"schema": 1, "signatures": [{}]}', "malformed signature entry"),
        (None, "not found"),
    ], ids=["wrong-schema", "not-json", "array", "empty-entry", "missing"])
    def test_clean_error(self, tmp_path, command, content, reason):
        path = tmp_path / "signatures.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as raised:
            main([command[0], "-s", str(path), *command[1:]])
        message = str(raised.value.code)
        assert message.startswith(f"repro: signature file {str(path)!r}")
        assert reason in message


class TestMatchExplain:
    def test_prints_the_redos_lint_counts(
        self, small_signatures, tmp_path, capsys
    ):
        from repro.core import signature_set_to_json

        path = tmp_path / "signatures.json"
        path.write_text(signature_set_to_json(small_signatures))
        assert main(["match", "explain", "-s", str(path)]) == 0
        out = capsys.readouterr().out
        served = re.search(
            r"redos lint, served set: (\d+) of (\d+) patterns flagged", out
        )
        catalog = re.search(
            r"redos lint, catalog: (\d+) of 477 patterns flagged", out
        )
        assert served and catalog, out
        assert 1 <= int(served.group(1)) <= int(served.group(2))
        assert int(catalog.group(1)) >= 3


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_queue_bound_must_be_positive(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--detector", "modsecurity", "--queue-bound", "0"])
        assert raised.value.code == 2
        assert "--queue-bound: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "-5"])
    def test_loadgen_rate_must_be_positive(self, rate, capsys):
        with pytest.raises(SystemExit) as raised:
            main([
                "loadgen", "--detector", "modsecurity", "--requests", "40",
                "--benign", "20", "--rate", rate,
            ])
        assert raised.value.code == 2
        assert f"--rate: must be > 0, got {float(rate)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [
        ["serve", "--serve-workers", "4"],
        ["serve", "--max-inflight", "64"],
        ["loadgen", "--serve-workers", "4"],
    ], ids=["serve-workers", "max-inflight", "loadgen-serve-workers"])
    def test_removed_serving_flags_are_usage_errors(self, argv, capsys):
        # Parse only: a parser that still knew the flag would start
        # serving under main().
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args([*argv, "--detector", "modsecurity"])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_policy_is_block_or_shed(self, command, capsys):
        parser = build_parser()
        for policy in ("block", "shed"):
            args = parser.parse_args([command, "--policy", policy])
            assert args.policy == policy
        with pytest.raises(SystemExit) as raised:
            parser.parse_args([command, "--policy", "cost"])
        assert raised.value.code == 2
        assert "invalid choice: 'cost'" in capsys.readouterr().err
