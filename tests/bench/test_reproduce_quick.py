"""Smoke: ``reproduce_all.py --quick`` produces a valid bundle.

Runs the real script end to end into a scratch directory: the quick
bench subset re-emits its artifacts, the corpus hash ledger is written,
and SUMMARY.json validates against the summary schema.  This is the
one test proving a fresh clone can regenerate the evaluation trajectory
with a single command.
"""

import json
import os
import subprocess
import sys

import pytest

from benchlib import list_artifacts, load_artifact, validate_summary

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
SCRIPT = os.path.join(REPO_ROOT, "scripts", "reproduce_all.py")

QUICK_SLUGS = {
    "table1_vulndb",
    "table2_feature_sources",
    "table4_rulesets",
    "figure2_heatmap",
    "figure4_cumulative_tpr",
}


@pytest.mark.smoke
def test_reproduce_quick_bundle(tmp_path):
    out_dir = str(tmp_path / "bundle")
    result = subprocess.run(
        [sys.executable, SCRIPT, "--quick", "--out", out_dir],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"reproduce_all --quick failed\nstdout:\n{result.stdout}\n"
        f"stderr:\n{result.stderr}"
    )

    # Every quick bench re-emitted a schema-valid artifact.
    slugs = {
        load_artifact(path)["bench"]
        for path in list_artifacts(out_dir)
    }
    assert QUICK_SLUGS <= slugs, f"missing artifacts: {QUICK_SLUGS - slugs}"

    # The corpus hash ledger exists and fingerprints the shared corpora.
    with open(os.path.join(out_dir, "CORPUS_HASHES.json")) as handle:
        ledger = json.load(handle)
    assert ledger["schema"] == 1
    assert ledger["corpora"], "empty corpus ledger"
    for digest in ledger["corpora"].values():
        assert len(digest) == 64 and int(digest, 16) >= 0

    # SUMMARY.json folds the bundle and validates.
    with open(os.path.join(out_dir, "SUMMARY.json")) as handle:
        summary = validate_summary(json.load(handle))
    assert summary["mode"] == "quick"
    assert QUICK_SLUGS <= set(summary["benches"])
    assert summary["corpus_hashes"] == ledger["corpora"]
