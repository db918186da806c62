"""``scripts/reproduce_all.py`` holds the bundle to the committed corpus
ledger: a changed digest fails, a new corpus name passes."""

import importlib.util
import os

import pytest

from benchlib import committed_json

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
COMMITTED = {
    "benign": "7869" + "0" * 60,
    "sqlmap": "9a77" + "1" * 60,
}


@pytest.fixture(scope="module")
def reproduce_all():
    path = os.path.join(REPO_ROOT, "scripts", "reproduce_all.py")
    spec = importlib.util.spec_from_file_location("_reproduce_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_digests_pass(reproduce_all):
    assert reproduce_all.check_ledger(dict(COMMITTED), COMMITTED) == []


def test_one_mutated_digest_fails_naming_both_prefixes(reproduce_all):
    fresh = dict(COMMITTED, sqlmap="9a77" + "2" * 60)
    with pytest.raises(SystemExit) as failure:
        reproduce_all.check_ledger(fresh, COMMITTED)
    message = str(failure.value)
    assert "'sqlmap'" in message
    assert "9a7722222222" in message and "9a7711111111" in message
    assert "benign" not in message


def test_a_new_corpus_is_reported_and_passes(reproduce_all):
    fresh = dict(COMMITTED, payloads="ab" * 32)
    assert reproduce_all.check_ledger(fresh, COMMITTED) == ["payloads"]


def test_reads_the_committed_ledger_at_head(reproduce_all):
    ledger = committed_json(reproduce_all.LEDGER_PATH)
    if ledger is None:
        pytest.skip("no committed corpus ledger at HEAD")
    committed = ledger["corpora"]
    assert {"sqlmap", "arachni", "benign"} <= set(committed)
    assert all(len(digest) == 64 for digest in committed.values())
    assert committed_json("benchmarks/results/no-such-file.json") is None
