"""Smoke test of the benchmark itself (a few minutes; not part of tier-1).

Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q

A short run of every workload, untraced and traced, must print every
metric named in ``BENCHMARK.json`` with its unit, pass its referee, and
close its stage sums within 10%; the same seed must rebuild the same
inputs byte for byte and another seed must change them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from results import REPORTED  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Reported, ungated metrics each kind of workload prints.
GATEWAY_REPORTED = ("cpu_us_per_req", "saturated_cpu_us_per_req",
                    "latency_p50_ms", "train_s", "fpr", "closed_loop_rps")
TRAIN_EVAL_REPORTED = ("train_s", "fpr", "score_rps")


def _printed(lines: list[str], name: str, unit: str) -> bool:
    return any(
        line.startswith(f"{name} = ") and line.endswith(f" {unit}")
        for line in lines
    )


def _run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_passes_referee(workload, trace):
    lines, result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert _printed(lines, metric["name"], metric["unit"]), metric["name"]
    training = workload == "train-eval"
    for name in TRAIN_EVAL_REPORTED if training else GATEWAY_REPORTED:
        assert _printed(lines, name, REPORTED[name]), name
    if trace:
        metrics = result["metrics"]
        assert abs(metrics["ids.closure"]["value"] - 1) <= 0.1
        if training:
            assert abs(metrics["pipeline.closure"]["value"] - 1) <= 0.1
        # MatchStats deltas cover one count_vector call per replayed unit.
        census = json.loads(
            next(line for line in lines if line.startswith("census: "))[8:]
        )
        assert metrics["match.ascii_fallback_share"]["value"] == pytest.approx(
            census["replayed_non_ascii_unit_share"]
        )
        assert any(line.startswith("tracing overhead ") for line in lines)
    else:
        for metric in BENCHMARK["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def _input_digests(seed: int) -> list[str]:
    # line-mix's pool holds the three test traces train-eval scores.
    line = inputs.line_mix(seed)
    framed = inputs.framed_surfaces(seed)
    schedule = inputs.poisson_schedule(seed, 500.0, 5.0)
    return [
        inputs.digest(line.wires),
        inputs.digest(framed.wires),
        inputs.digest([schedule.tobytes()]),
    ]


def test_seed_decides_inputs():
    first, again, other = _input_digests(5), _input_digests(5), _input_digests(6)
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
