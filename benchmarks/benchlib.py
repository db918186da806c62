"""The bench harness: one artifact schema, one writer, one floor check.

Every benchmark under ``benchmarks/`` emits a text table and a
schema-versioned ``BENCH_<slug>.json`` (a :class:`BenchResult`) under
``benchmarks/results/``.  This module is the one definition of that
artifact, imported as ``benchlib`` by the benches, ``tests/bench``,
``scripts/ci_bench_guard.py`` and ``scripts/reproduce_all.py`` (each puts
``benchmarks/`` on ``sys.path``; the same class imported under two
module names would be two classes):

- :class:`BenchResult`, :func:`validate_bench` — the result model and its
  strict schema (missing, extra and mistyped fields are all rejected);
- :func:`dump_bench_json`, :func:`write_artifact` — the one canonical
  writer (sorted keys, two-space indent, one trailing newline, NaN-free),
  so a committed artifact re-serializes byte for byte;
- :func:`corpus_digest`, :func:`build_summary` — corpus content hashing
  and the ``SUMMARY.json`` fold that ``scripts/reproduce_all.py`` writes;
- :func:`committed_json` — a results file as HEAD committed it, the
  baseline the guard and ``scripts/reproduce_all.py`` compare against;
- :func:`check_floors`, :func:`collect_floors` — each bench module
  declares ``FLOORS = {slug: ((metric, op, bound), ...)}`` once; the
  ``emit`` fixture checks every artifact it writes against it, and the
  guard collects the same tuples from every bench module;
- :func:`timer_overhead_s` — the ``perf_counter`` correction every
  per-item timing sample subtracts;
- :data:`BENCH_CONTEXT` — the shared bench-scale evaluation context's
  parameters, which the ``bench_context`` fixture and the guard's
  matching probe both build from.

``REPRO_BENCH_RESULTS_DIR`` redirects the results directory, so a bundle
can be regenerated into scratch space without touching the committed one.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import operator
import os
import platform
import re
import subprocess
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))

#: Environment override for the artifact directory.
RESULTS_DIR_ENV = "REPRO_BENCH_RESULTS_DIR"

#: ``EvaluationContext.build`` arguments of the shared bench context
#: (``benchmarks/conftest.py``): 3,000 crawled training samples, the full
#: 136-vulnerability application and 20,000 benign test requests.
BENCH_CONTEXT = {
    "seed": 2012,
    "n_attack_samples": 3000,
    "n_benign_train": 8000,
    "n_benign_test": 20_000,
    "max_cluster_rows": 1500,
    "n_vulnerabilities": 136,
}

#: Current artifact and summary schema versions.
BENCH_SCHEMA = 1
SUMMARY_SCHEMA = 1

#: The benchmark taxonomy: paper experiments, tables and figures, plus
#: the reproduction's own ablations, performance benches and extensions.
BENCH_KINDS = (
    "experiment", "table", "figure", "ablation", "perf", "extension",
)

#: Exactly these top-level artifact keys, and these provenance keys.
_TOP_LEVEL_KEYS = (
    "schema", "bench", "kind", "seed", "metrics", "data", "corpus",
    "provenance",
)
_PROVENANCE_KEYS = ("git", "python", "platform", "numpy")
_SUMMARY_KEYS = ("schema", "mode", "provenance", "benches", "corpus_hashes")

_SLUG_RE = re.compile(r"^[a-z0-9][a-z0-9_]*$")
_SHA256_RE = re.compile(r"^[0-9a-f]{64}$")

#: The comparisons a floor may make: ``value <op> bound``.
FLOOR_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


class BenchSchemaError(ValueError):
    """An artifact or summary that does not conform to its schema."""


# -- the result model ----------------------------------------------------------


def collect_provenance() -> dict[str, str]:
    """The environment fingerprint recorded in every artifact."""
    import numpy

    from repro.obs.manifest import git_describe

    return {
        "git": git_describe(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "numpy": numpy.__version__,
    }


def _json_safe(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    import numpy

    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, numpy.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    if isinstance(value, numpy.generic):
        return value.item()
    return value


def _require_keys(payload: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise BenchSchemaError(f"{what} missing required keys {missing}")
    extra = [key for key in payload if key not in keys]
    if extra:
        raise BenchSchemaError(f"{what} carries unknown keys {extra}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_bench(payload: Any) -> dict[str, Any]:
    """Check an artifact payload against the schema; return it on success.

    Raises:
        BenchSchemaError: wrong container type, missing or extra keys,
            mistyped values, malformed slugs or hashes, or non-JSON-safe
            nesting anywhere in ``data``.
    """
    if not isinstance(payload, dict):
        raise BenchSchemaError(
            f"artifact must be an object, got {type(payload).__name__}"
        )
    _require_keys(payload, _TOP_LEVEL_KEYS, "artifact")
    if not _is_int(payload["schema"]):
        raise BenchSchemaError("'schema' must be an integer")
    if payload["schema"] != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"unsupported bench schema {payload['schema']!r} "
            f"(expected {BENCH_SCHEMA})"
        )
    if not isinstance(payload["bench"], str) or not _SLUG_RE.match(
        payload["bench"]
    ):
        raise BenchSchemaError(
            f"'bench' must be a [a-z0-9_] slug, got {payload['bench']!r}"
        )
    if payload["kind"] not in BENCH_KINDS:
        raise BenchSchemaError(
            f"'kind' must be one of {BENCH_KINDS}, got {payload['kind']!r}"
        )
    if not _is_int(payload["seed"]):
        raise BenchSchemaError("'seed' must be an integer")
    metrics = payload["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise BenchSchemaError("'metrics' must be a non-empty object")
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise BenchSchemaError(f"metric key {key!r} is not a string")
        if not isinstance(value, (bool, int, float, str)):
            raise BenchSchemaError(
                f"metric {key!r} must be a scalar "
                f"(bool/int/float/str), got {type(value).__name__}"
            )
        if isinstance(value, float) and value != value:
            raise BenchSchemaError(f"metric {key!r} is NaN")
    if not isinstance(payload["data"], dict):
        raise BenchSchemaError("'data' must be an object")
    try:
        json.dumps(payload["data"], allow_nan=False)
    except (TypeError, ValueError) as error:
        raise BenchSchemaError(
            f"'data' is not JSON-serializable: {error}"
        ) from error
    corpus = payload["corpus"]
    if not isinstance(corpus, dict):
        raise BenchSchemaError("'corpus' must be an object")
    for name, digest in corpus.items():
        if not isinstance(name, str):
            raise BenchSchemaError(f"corpus key {name!r} is not a string")
        if not isinstance(digest, str) or not _SHA256_RE.match(digest):
            raise BenchSchemaError(
                f"corpus {name!r} must map to a sha256 hex digest, "
                f"got {digest!r}"
            )
    provenance = payload["provenance"]
    if not isinstance(provenance, dict):
        raise BenchSchemaError("'provenance' must be an object")
    _require_keys(provenance, _PROVENANCE_KEYS, "provenance")
    for key in _PROVENANCE_KEYS:
        if not isinstance(provenance[key], str):
            raise BenchSchemaError(f"provenance {key!r} must be a string")
    return payload


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's machine-readable result.

    Attributes:
        bench: unique artifact slug (``BENCH_<bench>.json``).
        kind: taxonomy bucket, one of :data:`BENCH_KINDS`.
        seed: the master seed the measurement ran under.
        metrics: flat scalar metrics — the values floors and the summary
            bind to.
        data: bench-specific structured payload (rows, curves, ledgers).
        corpus: SHA-256 content hashes of the measured inputs.
        provenance: git/environment fingerprint; collected automatically
            when left ``None``.
    """

    bench: str
    kind: str
    seed: int
    metrics: dict[str, Any]
    data: dict[str, Any] = field(default_factory=dict)
    corpus: dict[str, str] = field(default_factory=dict)
    provenance: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The validated artifact payload."""
        return validate_bench({
            "schema": BENCH_SCHEMA,
            "bench": self.bench,
            "kind": self.kind,
            "seed": self.seed,
            "metrics": _json_safe(dict(self.metrics)),
            "data": _json_safe(dict(self.data)),
            "corpus": dict(self.corpus),
            "provenance": (
                dict(self.provenance)
                if self.provenance is not None
                else collect_provenance()
            ),
        })

    def to_json(self) -> str:
        """The canonical artifact body (see :func:`dump_bench_json`)."""
        return dump_bench_json(self.to_dict())


# -- the writer ----------------------------------------------------------------


def results_dir() -> str:
    """The artifact directory (env-overridable, created on demand)."""
    directory = os.environ.get(RESULTS_DIR_ENV) or os.path.join(
        BENCHMARKS_DIR, "results"
    )
    os.makedirs(directory, exist_ok=True)
    return directory


def dump_bench_json(payload: Any) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline.

    ``allow_nan=False`` makes a NaN/inf metric a loud error instead of a
    silently non-standard artifact.
    """
    return (
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )


def write_artifact(
    result: BenchResult, directory: str | None = None
) -> str:
    """Validate and write one artifact; returns the written path."""
    path = os.path.join(
        directory if directory is not None else results_dir(),
        f"BENCH_{result.bench}.json",
    )
    with open(path, "w") as handle:
        handle.write(result.to_json())
    return path


def load_artifact(path: str) -> dict[str, Any]:
    """Read and schema-validate one artifact file."""
    with open(path) as handle:
        return validate_bench(json.load(handle))


def committed_json(path: str) -> Any:
    """The JSON file at *path* (relative to the repository root) as
    committed in HEAD, or None when HEAD has no such file.

    Raises:
        json.JSONDecodeError: the committed file is not JSON.
    """
    result = subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(BENCHMARKS_DIR),
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def list_artifacts(directory: str | None = None) -> list[str]:
    """Sorted paths of every ``BENCH_*.json`` in the results directory."""
    base = directory if directory is not None else results_dir()
    if not os.path.isdir(base):
        return []
    return sorted(
        os.path.join(base, name)
        for name in os.listdir(base)
        if name.startswith("BENCH_") and name.endswith(".json")
    )


# -- the bundle summary --------------------------------------------------------


def corpus_digest(payloads: Iterable[str]) -> str:
    """Order-sensitive SHA-256 over the payloads' own SHA-256 digests, so
    two corpora hash equal iff they hold the same payloads in order."""
    outer = hashlib.sha256()
    for payload in payloads:
        outer.update(hashlib.sha256(payload.encode("utf-8")).digest())
    return outer.hexdigest()


def build_summary(
    artifacts: Iterable[dict[str, Any]],
    *,
    mode: str,
    corpus_hashes: dict[str, str],
) -> dict[str, Any]:
    """Fold validated artifacts into the unified summary payload.

    Args:
        artifacts: artifact payloads (each validated before folding).
        mode: how the bundle was produced (``"full"`` or ``"quick"``).
        corpus_hashes: the corpus hash ledger body.
    """
    benches: dict[str, Any] = {}
    for artifact in artifacts:
        validate_bench(artifact)
        slug = artifact["bench"]
        if slug in benches:
            raise BenchSchemaError(
                f"duplicate artifact slug {slug!r} in summary"
            )
        benches[slug] = {
            "kind": artifact["kind"],
            "seed": artifact["seed"],
            "metrics": dict(artifact["metrics"]),
        }
    return {
        "schema": SUMMARY_SCHEMA,
        "mode": mode,
        "provenance": collect_provenance(),
        "benches": benches,
        "corpus_hashes": dict(corpus_hashes),
    }


def validate_summary(payload: Any) -> dict[str, Any]:
    """Check a summary payload; returns it on success.

    Raises:
        BenchSchemaError: wrong shape, missing/extra keys, or a bench
            entry that lacks kind/seed/metrics.
    """
    if not isinstance(payload, dict):
        raise BenchSchemaError(
            f"summary must be an object, got {type(payload).__name__}"
        )
    _require_keys(payload, _SUMMARY_KEYS, "summary")
    if payload["schema"] != SUMMARY_SCHEMA:
        raise BenchSchemaError(
            f"unsupported summary schema {payload['schema']!r}"
        )
    if payload["mode"] not in ("full", "quick"):
        raise BenchSchemaError(
            f"summary mode must be 'full' or 'quick', "
            f"got {payload['mode']!r}"
        )
    if not isinstance(payload["provenance"], dict):
        raise BenchSchemaError("summary 'provenance' must be an object")
    benches = payload["benches"]
    if not isinstance(benches, dict) or not benches:
        raise BenchSchemaError("summary 'benches' must be non-empty")
    for slug, entry in benches.items():
        if not isinstance(entry, dict) or set(entry) != {
            "kind", "seed", "metrics",
        }:
            raise BenchSchemaError(
                f"summary bench {slug!r} must carry exactly "
                f"kind/seed/metrics"
            )
        if not isinstance(entry["metrics"], dict) or not entry["metrics"]:
            raise BenchSchemaError(
                f"summary bench {slug!r} metrics must be non-empty"
            )
    if not isinstance(payload["corpus_hashes"], dict):
        raise BenchSchemaError("summary 'corpus_hashes' must be an object")
    return payload


# -- floors --------------------------------------------------------------------


def check_floors(
    where: str, metrics: dict[str, Any], floors: Iterable[tuple]
) -> None:
    """Hold one artifact's metrics to its ``(metric, op, bound)`` floors;
    ``where`` (its slug or path) heads the error.

    Raises:
        AssertionError: naming every floor the metrics miss, including a
            floored metric the artifact does not record.
    """
    misses = []
    for metric, op, bound in floors:
        if metric not in metrics:
            misses.append(
                f"no metric {metric!r} for '{metric} {op} {bound!r}'"
            )
        elif not FLOOR_OPS[op](metrics[metric], bound):
            misses.append(
                f"{metric}={metrics[metric]!r} violates "
                f"'{metric} {op} {bound!r}'"
            )
    if misses:
        raise AssertionError(f"{where}: " + "; ".join(misses))


def bench_module_names() -> list[str]:
    """Every bench module (``benchmarks/test_*.py``), by file stem."""
    return sorted(
        name[:-len(".py")]
        for name in os.listdir(BENCHMARKS_DIR)
        if name.startswith("test_") and name.endswith(".py")
    )


@functools.cache
def load_bench_module(name: str):
    """One bench module, loaded from its file (``test_match_fused``)."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(BENCHMARKS_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect_floors() -> dict[str, tuple[tuple[str, str, Any], ...]]:
    """Every bench module's ``FLOORS``, merged by slug.

    Raises:
        AssertionError: a slug declared by two bench modules.
        AttributeError: a bench module that declares no ``FLOORS``.
    """
    floors: dict[str, tuple] = {}
    owner: dict[str, str] = {}
    for name in bench_module_names():
        for slug, triples in load_bench_module(name).FLOORS.items():
            if slug in floors:
                raise AssertionError(
                    f"floors for '{slug}' declared twice: in "
                    f"{owner[slug]}.py and {name}.py"
                )
            floors[slug] = tuple(triples)
            owner[slug] = name
    return floors


# -- timing --------------------------------------------------------------------


def timer_overhead_s(samples: int = 2000) -> float:
    """Median cost, in seconds, of one back-to-back ``perf_counter`` pair.

    Every per-item timing sample carries one such pair inside its
    interval; samplers subtract it so a sum of per-item costs does not
    grow by one pair per item.  The median is robust to scheduler noise
    where the mean is not.
    """
    gaps = []
    for _ in range(samples):
        start = time.perf_counter()
        gaps.append(time.perf_counter() - start)
    gaps.sort()
    return gaps[len(gaps) // 2]
