"""The bench harness (``benchmarks/benchlib.py``): schema, canon, floors.

Every benchmark emits through one writer, so these tests pin the three
properties the trajectory depends on: a valid result survives a
serialize → load → validate round-trip unchanged; malformed payloads are
rejected loudly (missing, extra, and mistyped fields alike); and every
committed ``BENCH_*.json`` re-serializes byte-identically — nobody wrote
one by hand or through a different dumper.  ``check_floors``, which
every ``emit`` and the guard's sweep run, gets one case per op.
"""

import json
import math
import os

import numpy as np
import pytest

from benchlib import (
    BENCH_KINDS,
    BENCH_SCHEMA,
    FLOOR_OPS,
    RESULTS_DIR_ENV,
    BenchResult,
    BenchSchemaError,
    build_summary,
    check_floors,
    corpus_digest,
    dump_bench_json,
    list_artifacts,
    load_artifact,
    results_dir,
    validate_bench,
    validate_summary,
    write_artifact,
)

COMMITTED_RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "benchmarks", "results",
)


def make_result(**overrides):
    defaults = dict(
        bench="demo_bench",
        kind="perf",
        seed=2012,
        metrics={"speedup": 3.25, "identical": True, "requests": 400},
        data={"rows": [{"workers": 1, "us": 12.5}]},
        corpus={"payloads": corpus_digest(["a", "b"])},
    )
    defaults.update(overrides)
    return BenchResult(**defaults)


class TestRoundTrip:
    def test_to_dict_validates_and_is_json_safe(self):
        payload = make_result().to_dict()
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["bench"] == "demo_bench"
        assert validate_bench(payload) is payload
        json.dumps(payload)  # no numpy leakage

    def test_serialize_load_validate_round_trip(self):
        text = make_result().to_json()
        payload = validate_bench(json.loads(text))
        assert dump_bench_json(payload) == text

    def test_numpy_scalars_coerced(self):
        result = make_result(metrics={
            "count": np.int64(7),
            "rate": np.float64(0.25),
            "ok": np.bool_(True),
        })
        payload = result.to_dict()
        assert payload["metrics"] == {
            "count": 7, "rate": 0.25, "ok": True,
        }
        assert type(payload["metrics"]["count"]) is int
        assert type(payload["metrics"]["ok"]) is bool

    def test_provenance_collected_when_absent(self):
        payload = make_result().to_dict()
        assert set(payload["provenance"]) == {
            "git", "python", "platform", "numpy",
        }

    def test_all_kinds_accepted(self):
        for kind in BENCH_KINDS:
            validate_bench(make_result(kind=kind).to_dict())

    def test_write_and_load_artifact(self, tmp_path):
        path = write_artifact(make_result(), str(tmp_path))
        assert os.path.basename(path) == "BENCH_demo_bench.json"
        assert load_artifact(path)["metrics"]["speedup"] == 3.25
        assert list_artifacts(str(tmp_path)) == [path]

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RESULTS_DIR_ENV, str(tmp_path / "scratch"))
        assert results_dir() == str(tmp_path / "scratch")
        assert os.path.isdir(results_dir())


class TestRejection:
    def test_missing_field(self):
        payload = make_result().to_dict()
        del payload["metrics"]
        with pytest.raises(BenchSchemaError, match="missing"):
            validate_bench(payload)

    def test_extra_field(self):
        payload = make_result().to_dict()
        payload["extra"] = 1
        with pytest.raises(BenchSchemaError, match="unknown"):
            validate_bench(payload)

    def test_mistyped_seed(self):
        payload = make_result().to_dict()
        payload["seed"] = "2012"
        with pytest.raises(BenchSchemaError):
            validate_bench(payload)

    def test_bad_slug(self):
        with pytest.raises(BenchSchemaError):
            make_result(bench="Demo Bench!").to_dict()

    def test_bad_kind(self):
        with pytest.raises(BenchSchemaError):
            make_result(kind="vibes").to_dict()

    def test_empty_metrics(self):
        with pytest.raises(BenchSchemaError):
            make_result(metrics={}).to_dict()

    def test_nan_metric(self):
        with pytest.raises(BenchSchemaError):
            make_result(metrics={"speedup": math.nan}).to_dict()

    def test_non_hex_corpus_digest(self):
        with pytest.raises(BenchSchemaError):
            make_result(corpus={"payloads": "nothex"}).to_dict()

    def test_wrong_schema_version(self):
        payload = make_result().to_dict()
        payload["schema"] = 99
        with pytest.raises(BenchSchemaError):
            validate_bench(payload)

    def test_wrong_provenance_keys(self):
        payload = make_result().to_dict()
        payload["provenance"] = {"git": "abc"}
        with pytest.raises(BenchSchemaError):
            validate_bench(payload)

    def test_non_flat_metric_value(self):
        with pytest.raises(BenchSchemaError):
            make_result(metrics={"nested": {"a": 1}}).to_dict()


class TestSummary:
    def test_build_and_validate(self):
        artifacts = [
            make_result(bench="one").to_dict(),
            make_result(bench="two").to_dict(),
        ]
        hashes = {"payloads": corpus_digest(["a", "b"])}
        summary = validate_summary(
            build_summary(artifacts, mode="quick", corpus_hashes=hashes)
        )
        assert set(summary["benches"]) == {"one", "two"}
        assert summary["corpus_hashes"] == hashes

    def test_duplicate_slug_rejected(self):
        artifacts = [make_result().to_dict(), make_result().to_dict()]
        with pytest.raises(BenchSchemaError, match="duplicate"):
            build_summary(artifacts, mode="full", corpus_hashes={})

    def test_bad_mode_rejected(self):
        summary = build_summary(
            [make_result().to_dict()], mode="full", corpus_hashes={}
        )
        summary["mode"] = "partial"
        with pytest.raises(BenchSchemaError):
            validate_summary(summary)

    def test_corpus_digest_is_order_sensitive(self):
        assert corpus_digest(["a", "b"]) != corpus_digest(["b", "a"])
        assert corpus_digest(["a", "b"]) == corpus_digest(iter(["a", "b"]))


class TestCommittedArtifacts:
    def test_every_committed_artifact_is_canonical(self):
        paths = list_artifacts(COMMITTED_RESULTS_DIR)
        assert paths, "no committed BENCH_*.json artifacts"
        for path in paths:
            payload = load_artifact(path)  # schema-valid
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
            assert dump_bench_json(payload) == raw, (
                f"{os.path.basename(path)} is not canonical; rewrite it "
                f"through benchlib.write_artifact"
            )

    def test_committed_slugs_match_filenames(self):
        for path in list_artifacts(COMMITTED_RESULTS_DIR):
            name = os.path.basename(path)
            slug = name[len("BENCH_"):-len(".json")]
            assert load_artifact(path)["bench"] == slug, name


#: (op, value, bound, holds): each op on both sides of its bound; the
#: strict ops also at the bound itself, which they reject.
FLOOR_CASES = [
    (">=", 1.0, 1.0, True),
    (">=", 0.9, 1.0, False),
    (">", 1.1, 1.0, True),
    (">", 1.0, 1.0, False),
    ("<=", 1.0, 1.0, True),
    ("<=", 1.1, 1.0, False),
    ("<", 0.9, 1.0, True),
    ("<", 1.0, 1.0, False),
    ("==", True, True, True),
    ("==", False, True, False),
]


class TestCheckFloors:
    @pytest.mark.parametrize("op, value, bound, holds", FLOOR_CASES)
    def test_each_op(self, op, value, bound, holds):
        floors = (("metric", op, bound),)
        if holds:
            check_floors("demo", {"metric": value}, floors)
        else:
            with pytest.raises(AssertionError, match=f"'metric {op} "):
                check_floors("demo", {"metric": value}, floors)

    def test_the_cases_cover_every_op(self):
        assert {case[0] for case in FLOOR_CASES} == set(FLOOR_OPS)
        assert len(FLOOR_OPS) == 5

    def test_unrecorded_metric_fails(self):
        with pytest.raises(AssertionError, match="no metric 'gone'"):
            check_floors("demo", {"speedup": 3.0}, (("gone", ">=", 1),))

    def test_every_miss_is_named(self):
        with pytest.raises(AssertionError) as raised:
            check_floors(
                "demo", {"a": 0, "b": 0},
                (("a", ">", 0), ("b", "<", 0)),
            )
        assert "'a > 0'" in str(raised.value)
        assert "'b < 0'" in str(raised.value)
