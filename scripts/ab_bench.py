"""Paired A/B runs of the repo benchmark: a base git ref against this tree.

Usage, from the root of a checkout::

    python3 scripts/ab_bench.py HEAD~1 --workload line-mix --pairs 10

The base ref is checked out into a temporary ``git worktree`` (removed on
exit); the change is this checkout's working tree, uncommitted edits
included.  For each workload, pair ``i`` runs ``e2ebench/run.py`` once on
each side with seed ``--seed + i``, at ``BENCHMARK.json``'s
``run_seconds``.  The side that runs first alternates from pair to pair,
so drift that neighbouring runs share cancels in the paired ratio.

For every gated end-to-end metric the report gives each side's median
and quartiles, the median of the per-pair ``change / base`` ratios with a
seeded bootstrap 95% interval, and the pairs the change wins, ties and
loses in the metric's ``better`` direction.  Every run's ``failed`` count
and host ``steal_ticks`` are printed too.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 2000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _ratio(change: float, base: float) -> float:
    if change == base:
        return 1.0
    return change / base if base else float("inf")


def summarize(
    pairs: list[tuple[dict[str, float], dict[str, float]]],
    metrics: list[dict],
    *,
    seed: int = 0,
) -> list[dict]:
    """Paired statistics for each metric.

    Args:
        pairs: one ``(base, change)`` pair of metric-name -> value maps
            per pair of runs.
        metrics: ``BENCHMARK.json`` ``end_to_end`` entries (``name``,
            ``better``).
        seed: seed of the :data:`BOOTSTRAP_RESAMPLES` bootstrap resamples
            of the per-pair ratios.

    Returns one dict per metric: ``name``, ``better``, ``base`` and
    ``change`` as (q1, median, q3), ``ratio`` (median paired ratio),
    ``ci`` (its bootstrap 95% interval), ``wins``, ``ties``, ``losses``.
    """
    rng = random.Random(seed)
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        ratios = [_ratio(c, b) for b, c in zip(base, change)]
        medians = sorted(
            statistics.median(rng.choices(ratios, k=len(ratios)))
            for _ in range(BOOTSTRAP_RESAMPLES)
        )
        better = [(c < b) if lower else (c > b) for b, c in zip(base, change)]
        ties = sum(b == c for b, c in zip(base, change))
        rows.append({
            "name": name,
            "better": metric["better"],
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio": statistics.median(ratios),
            "ci": (
                medians[int(0.025 * (BOOTSTRAP_RESAMPLES - 1))],
                medians[int(0.975 * (BOOTSTRAP_RESAMPLES - 1))],
            ),
            "wins": sum(better),
            "ties": ties,
            "losses": len(pairs) - sum(better) - ties,
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    """The per-metric table :func:`summarize` returns, as text.

    ``|dmed| / IQR`` sets the distance between the two medians against
    the interquartile range of the base runs.
    """
    lines = [
        f"{'metric':<16}{'better':<8}{'base median [q1, q3]':<28}"
        f"{'change median [q1, q3]':<28}{'ratio [95% CI]':<26}"
        f"{'|dmed| / IQR':<24}W/T/L"
    ]
    for row in rows:
        base, change = (
            f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"
            for q1, q2, q3 in (row["base"], row["change"])
        )
        ratio = "{:.4f} [{:.4f}, {:.4f}]".format(row["ratio"], *row["ci"])
        spread = "{:.4g} / {:.4g}".format(
            abs(row["change"][1] - row["base"][1]),
            row["base"][2] - row["base"][0],
        )
        lines.append(
            f"{row['name']:<16}{row['better']:<8}{base:<28}{change:<28}"
            f"{ratio:<26}{spread:<24}"
            f"{row['wins']}/{row['ties']}/{row['losses']}"
        )
    return "\n".join(lines)


def run_e2ebench(
    tree: Path, workload: str, seed: int, seconds: float
) -> dict:
    """One ``e2ebench/run.py`` run in ``tree``: metrics, failed, steal."""
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"e2ebench in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    host = next(
        json.loads(line[len("host: "):])
        for line in lines if line.startswith("host: ")
    )
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "steal_ticks": host["steal_ticks"],
    }


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the base side")
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--pairs", type=int, default=5,
        help="pairs of runs per workload (default: 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="seed of the first pair; pair i uses seed + i (default: 1)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()

    # SIGTERM unwinds through the finally below, removing the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = Path(tempfile.mkdtemp(prefix="ab-bench-"))
    base_tree = workdir / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(base_tree), sha],
        cwd=ROOT, capture_output=True, check=True,
    )
    trees = {"base": base_tree, "change": ROOT}
    try:
        for workload in args.workload or workloads:
            print(
                f"== {workload}: {args.pairs} pairs of {seconds:g} s, "
                f"seeds {args.seed}..{args.seed + args.pairs - 1}; "
                f"base {args.base} ({sha[:12]}), change {ROOT}"
            )
            print(
                "pair seed side   "
                + "".join(f"{m['name']:>16}" for m in metrics)
                + f"{'failed':>8}{'steal_ticks':>13}"
            )
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("change", "base") if i % 2 else ("base", "change")
                runs = {}
                for side in order:
                    run = runs[side] = run_e2ebench(
                        trees[side], workload, seed, seconds
                    )
                    values = "".join(
                        f"{run['metrics'][m['name']]:>16.6g}" for m in metrics
                    )
                    print(
                        f"{i + 1:<5}{seed:<5}{side:<7}{values}"
                        f"{run['failed']:>8}{run['steal_ticks']:>13}",
                        flush=True,
                    )
                pairs.append(
                    (runs["base"]["metrics"], runs["change"]["metrics"])
                )
            print(format_summary(summarize(pairs, metrics)))
            print()
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_tree)],
            cwd=ROOT, capture_output=True, check=False,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
