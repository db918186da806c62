"""No bench escapes the trajectory: artifacts ↔ floors ↔ emitters.

Floors are declared once, as ``FLOORS`` in the bench module that emits
the artifact; ``benchlib.collect_floors`` gathers them for the guard and
for these closures, each failing with the name of what is missing:

1. every committed ``BENCH_*.json`` has floors (no unguarded artifact);
2. every floored slug has a committed artifact (no phantom guard);
3. no slug is floored by two bench modules;
4. every benchmark module emits a JSON artifact through the shared
   writer (no bench producing only a text table).
"""

import os
from types import SimpleNamespace

import pytest

import benchlib
from benchlib import (
    BENCHMARKS_DIR,
    FLOOR_OPS,
    bench_module_names,
    collect_floors,
    list_artifacts,
    load_artifact,
)

RESULTS_DIR = os.path.join(BENCHMARKS_DIR, "results")


def _committed_slugs():
    return {
        load_artifact(path)["bench"]
        for path in list_artifacts(RESULTS_DIR)
    }


def test_every_artifact_is_guarded():
    unguarded = sorted(_committed_slugs() - set(collect_floors()))
    assert not unguarded, (
        f"committed artifacts whose bench declares no FLOORS: {unguarded}"
    )


def test_every_guard_entry_has_an_artifact():
    phantom = sorted(set(collect_floors()) - _committed_slugs())
    assert not phantom, (
        f"FLOORS entries without a committed BENCH_*.json: {phantom} — "
        f"run scripts/reproduce_all.py and commit the results"
    )


def test_floors_reference_recorded_metrics():
    by_slug = {
        payload["bench"]: payload
        for payload in map(load_artifact, list_artifacts(RESULTS_DIR))
    }
    for slug, triples in collect_floors().items():
        metrics = by_slug[slug]["metrics"]
        for metric, op, _bound in triples:
            assert metric in metrics, (
                f"FLOORS[{slug!r}] guards metric {metric!r} which the "
                f"committed artifact does not record"
            )
            assert op in FLOOR_OPS, (slug, metric, op)


def test_a_slug_floored_twice_fails(monkeypatch):
    modules = {
        "test_one": SimpleNamespace(FLOORS={"demo": (("x", ">", 0),)}),
        "test_two": SimpleNamespace(FLOORS={"demo": (("x", "<", 9),)}),
    }
    monkeypatch.setattr(benchlib, "bench_module_names", lambda: [*modules])
    monkeypatch.setattr(benchlib, "load_bench_module", modules.__getitem__)
    with pytest.raises(AssertionError, match="'demo' declared twice"):
        collect_floors()


def test_every_bench_module_emits_an_artifact():
    missing = []
    for name in bench_module_names():
        with open(os.path.join(BENCHMARKS_DIR, f"{name}.py")) as handle:
            source = handle.read()
        if "emit(" not in source:
            missing.append(f"{name}.py")
    assert not missing, (
        f"bench modules without a JSON artifact emitter: {missing}"
    )
