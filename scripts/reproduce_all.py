"""One command to regenerate the paper's full artifact bundle.

Runs the benchmark suite (every experiment, table, figure, ablation, and
extension bench) so each one re-emits its ``BENCH_<slug>.json`` artifact
through the ``benchmarks/benchlib.py`` writer, which also holds it to the
floors its bench declares, then folds the bundle into:

``CORPUS_HASHES.json`` — the corpus content-hash ledger, the union of
every artifact's recorded corpus fingerprints (order-sensitive SHA-256
over per-payload digests).  A conflict — two artifacts recording
different digests for the same corpus name — fails the run: the bundle
would not describe one coherent evaluation.  So does a digest that
differs from the one HEAD's committed ledger records for the same name
(read with ``git show``): the seeded generators must rebuild the
committed corpora byte for byte.  The fresh ledger and summary are
written first, so a deliberate corpus change leaves them to review and
commit.  A name HEAD's ledger lacks is printed and passes.

``SUMMARY.json`` — the unified, schema-validated evaluation summary:
per-bench kind/seed/metrics plus the corpus ledger and environment
provenance, so the whole trajectory reads from a single file.

Modes:

``--quick``
    Smoke subset (tables I/II/IV + figure 4 — one shared pipeline
    build, under a minute) proving the bundle machinery end to end.
    The default full mode regenerates everything (several minutes).

``--out DIR``
    Write artifacts, ledger, and summary into ``DIR`` instead of the
    committed ``benchmarks/results/`` (exported to the bench run via
    ``REPRO_BENCH_RESULTS_DIR``).

Usage::

    python scripts/reproduce_all.py --quick
    python scripts/reproduce_all.py            # full bundle
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)

#: The smoke subset: cheap benches sharing one pipeline build, still
#: exercising context-corpus hashing and all three artifact kinds'
#: plumbing (table + figure + the shared writer), and re-measuring
#: phase 3's traced memory peak against its floor (figure 2).
QUICK_BENCHES = (
    "benchmarks/test_table1_vulndb.py",
    "benchmarks/test_table2_feature_sources.py",
    "benchmarks/test_table4_rulesets.py",
    "benchmarks/test_figure2_heatmap.py",
    "benchmarks/test_figure4_cumulative_tpr.py",
)

#: The committed corpus ledger, relative to the repository root.
LEDGER_PATH = "benchmarks/results/CORPUS_HASHES.json"


def run_benches(paths: tuple[str, ...], out_dir: str) -> int:
    """Run the bench suite with artifacts redirected to ``out_dir``."""
    env = dict(os.environ)
    env["REPRO_BENCH_RESULTS_DIR"] = out_dir
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    command = [sys.executable, "-m", "pytest", "-q", *paths]
    print(f"$ {' '.join(command)}")
    return subprocess.run(command, env=env, cwd=REPO_ROOT).returncode


def check_ledger(
    fresh: dict[str, str], committed: dict[str, str]
) -> list[str]:
    """Compare fresh corpus digests with the committed ledger.

    Returns the names the committed ledger lacks.

    Raises:
        SystemExit: a name in both ledgers whose digests differ.
    """
    changed = [
        f"{name!r} hashed {digest[:12]}… (committed "
        f"{committed[name][:12]}…)"
        for name, digest in sorted(fresh.items())
        if name in committed and committed[name] != digest
    ]
    if changed:
        raise SystemExit(
            f"corpus ledger differs from {LEDGER_PATH} at HEAD: "
            + "; ".join(changed)
        )
    return sorted(set(fresh) - set(committed))


def fold_bundle(out_dir: str, mode: str) -> None:
    """Build the corpus ledger and SUMMARY.json from ``out_dir``."""
    from benchlib import (
        build_summary,
        committed_json,
        dump_bench_json,
        list_artifacts,
        load_artifact,
        validate_summary,
    )

    paths = list_artifacts(out_dir)
    if not paths:
        raise SystemExit(
            f"no BENCH_*.json artifacts in {out_dir}; bench run "
            f"produced nothing to fold"
        )
    artifacts = [load_artifact(path) for path in paths]

    corpus_hashes: dict[str, str] = {}
    for artifact in artifacts:
        for name, digest in artifact["corpus"].items():
            known = corpus_hashes.get(name)
            if known is not None and known != digest:
                raise SystemExit(
                    f"corpus ledger conflict: {name!r} hashed "
                    f"{digest[:12]}… by {artifact['bench']} but "
                    f"{known[:12]}… elsewhere"
                )
            corpus_hashes[name] = digest

    ledger_path = os.path.join(out_dir, "CORPUS_HASHES.json")
    with open(ledger_path, "w") as handle:
        handle.write(
            dump_bench_json({"schema": 1, "corpora": corpus_hashes})
        )
    print(f"[saved to {ledger_path}] ({len(corpus_hashes)} corpora)")

    summary = validate_summary(build_summary(
        artifacts, mode=mode, corpus_hashes=corpus_hashes
    ))
    summary_path = os.path.join(out_dir, "SUMMARY.json")
    with open(summary_path, "w") as handle:
        handle.write(dump_bench_json(summary))
    print(
        f"[saved to {summary_path}] ({len(summary['benches'])} benches, "
        f"mode={mode})"
    )

    committed = (committed_json(LEDGER_PATH) or {"corpora": {}})["corpora"]
    for name in check_ledger(corpus_hashes, committed):
        print(f"corpus {name!r} is new to {LEDGER_PATH}")
    print(
        f"corpus ledger matches {LEDGER_PATH} at HEAD on "
        f"{len(set(corpus_hashes) & set(committed))} corpora"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every bench artifact and fold the bundle."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the smoke subset (fast end-to-end proof)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "benchmarks", "results"),
        help="artifact output directory (default: benchmarks/results)",
    )
    args = parser.parse_args(argv)

    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    sys.path[:0] = [
        os.path.join(REPO_ROOT, "src"),
        os.path.join(REPO_ROOT, "benchmarks"),
    ]

    mode = "quick" if args.quick else "full"
    paths = QUICK_BENCHES if args.quick else ("benchmarks",)
    returncode = run_benches(paths, out_dir)
    if returncode != 0:
        print(
            f"bench run exited {returncode}; folding whatever artifacts "
            f"were emitted",
            file=sys.stderr,
        )
    fold_bundle(out_dir, mode)
    return returncode


if __name__ == "__main__":
    raise SystemExit(main())
