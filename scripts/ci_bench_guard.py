"""CI guard: every committed bench artifact must validate and hold its floor.

All benchmarks emit a machine-readable ``BENCH_<slug>.json`` next to their
text table under ``benchmarks/results/`` (the ``benchmarks/benchlib.py``
schema).  This guard holds the tree to that ledger in three layers:

**Layer 1 — schema sweep.**  Every ``BENCH_*.json`` on disk must validate
against the ``BenchResult`` schema and be byte-identical to its canonical
re-serialization (one writer, one byte layout — diffs stay reviewable).

**Layer 2 — per-bench floors.**  Every artifact must clear the
(metric, op, bound) floors its bench declares in ``FLOORS`` — the same
tuples the bench's ``emit`` checks — so a regressed artifact cannot be
committed even when the bench run that produced it was skipped.  An
artifact no bench floors fails (unguarded artifact); a floored slug with
no artifact fails (missing trajectory point).

**Layer 3 — deep guards.**  Four benches get live re-measurement on top of
the committed numbers, three of them on one trained seed-2012 default
detector:

``BENCH_matching.json`` — the bench's own ``measure_fused_matching`` runs
fresh on a seeded fuzz corpus; verdicts must stay bit-identical to the
legacy path and the fresh speedup must hold 85% of the committed baseline
speedup (a ratio of ratios — insensitive to the runner's absolute speed).

``BENCH_serving.json`` — a live fleet probe, three alternated passes
each at one and two shards, must serve with bit-exact parity on every
pass, and the median two-shard throughput must retain at least half of
the median single-shard one.

``BENCH_canary.json`` — the committed promote/reject rounds replay
through the *current* gate implementation; both decisions must reproduce,
so gate-semantics drift fails CI before the live canary smoke step.

``BENCH_surfaces.json`` — the surface ledger is deterministic from
committed seeds, so the guard recomputes the bench's exact configuration
with its own ``measure_surfaces`` and requires the fresh ledger to be
*identical* to the committed one.

When a baseline artifact does not exist in HEAD (first run on a fresh
branch), the deep guards record what they measured and pass: there is
nothing to regress against yet.

Usage: ``PYTHONPATH=src python scripts/ci_bench_guard.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
))

from benchlib import (  # noqa: E402 - needs benchmarks/ on the path
    check_floors,
    collect_floors,
    dump_bench_json,
    list_artifacts,
    load_artifact,
    load_bench_module,
)

BASELINE_PATH = "benchmarks/results/BENCH_matching.json"
CANARY_BASELINE_PATH = "benchmarks/results/BENCH_canary.json"
SURFACES_BASELINE_PATH = "benchmarks/results/BENCH_surfaces.json"
#: The canonical small detector's seed: the matching and fleet probes use
#: it, and so does the surfaces bench (its ``SEED``).
DETECTOR_SEED = 2012
ALLOWED_FRACTION = 0.85
MIN_PROBE_EFFICIENCY = 0.5
PROBE_PAYLOAD_COUNT = 400
#: Shard count of each probe pass: three each, alternated.
PROBE_ORDER = (1, 2, 2, 1, 1, 2)


def committed_baseline(path: str = BASELINE_PATH) -> dict | None:
    """The baseline artifact as committed in HEAD, or None if absent."""
    result = subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as error:
        raise AssertionError(
            f"committed {path} is not valid JSON: {error}"
        ) from error


def sweep_artifacts() -> str:
    """Layer 1 + 2: validate every on-disk artifact and apply its floors.

    Returns the verdict line; raises AssertionError on the first broken
    artifact, unguarded artifact, or missing artifact.
    """
    floors = collect_floors()
    paths = list_artifacts()
    if not paths:
        raise AssertionError(
            "no BENCH_*.json artifacts under benchmarks/results/; "
            "run scripts/reproduce_all.py"
        )
    seen: set[str] = set()
    for path in paths:
        payload = load_artifact(path)  # raises BenchSchemaError on bad shape
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
        if dump_bench_json(payload) != raw:
            raise AssertionError(
                f"{path} is not in canonical serialization; rewrite it "
                f"through benchlib.write_artifact"
            )
        slug = payload["bench"]
        seen.add(slug)
        if slug not in floors:
            raise AssertionError(
                f"{path}: no bench module declares FLOORS for '{slug}' "
                f"— every artifact must be guarded"
            )
        check_floors(path, payload["metrics"], floors[slug])
    missing = sorted(set(floors) - seen)
    if missing:
        raise AssertionError(
            f"floors defined but artifact missing for: {', '.join(missing)}"
            f" — run scripts/reproduce_all.py and commit the results"
        )
    return (
        f"artifact sweep OK: {len(paths)} artifacts schema-valid, "
        f"canonical, and clear of {sum(len(f) for f in floors.values())} "
        f"floors across {len(floors)} benches"
    )


def fresh_measurement(detector) -> dict:
    """The matching bench's metrics, re-measured on the seeded fuzz
    corpus."""
    from repro.conformance import generate_corpus

    bench = load_bench_module("test_match_fused")
    payloads = generate_corpus(seed=DETECTOR_SEED, budget="small")
    return bench.measure_fused_matching(
        detector.signature_set, payloads
    ).metrics


def check(baseline: dict | None, fresh: dict) -> str:
    """The guard's verdict line; raises AssertionError on regression."""
    speedup = fresh["speedup"]
    if not fresh["identical"]:
        raise AssertionError(
            "fused verdicts diverged from the legacy path"
        )
    if speedup < 1.0:
        raise AssertionError(
            f"fused path is slower than legacy (speedup {speedup:.2f}x)"
        )
    if baseline is None:
        return (
            f"bench guard OK (no committed {BASELINE_PATH} baseline): "
            f"fresh speedup {speedup:.2f}x, verdicts identical"
        )
    baseline_speedup = float(baseline["metrics"]["speedup"])
    floor = ALLOWED_FRACTION * baseline_speedup
    if speedup < floor:
        raise AssertionError(
            f"fused speedup regressed >15%: fresh {speedup:.2f}x "
            f"< floor {floor:.2f}x (baseline {baseline_speedup:.2f}x)"
        )
    return (
        f"bench guard OK: fresh speedup {speedup:.2f}x "
        f">= floor {floor:.2f}x (baseline {baseline_speedup:.2f}x), "
        f"verdicts identical"
    )


def serving_probe(detector) -> dict:
    """A small live 2-shard fleet run: parity and retained capacity.

    Closed-loop over a slice of the deterministic replay trace, three
    passes per shard count in the order ``PROBE_ORDER``, on the same
    host.  Returns the median throughput per shard count and the parity
    verdict over every pass — cheap enough for every CI run, live
    enough to catch a fleet that no longer serves or diverges from the
    offline engine.  One pass per shard count read c2/c1 anywhere from
    0.58 to 3.10 on a 2-vCPU host; the medians of alternated passes keep
    one slow pass from deciding the ratio.
    """
    import asyncio
    import statistics

    from repro.serve import GatewayConfig, build_load_trace, run_loadgen

    trace = build_load_trace(seed=7, n_benign=300, n_vulnerabilities=6)
    payloads = trace.payloads()[:PROBE_PAYLOAD_COUNT]
    reports = {1: [], 2: []}
    for shards in PROBE_ORDER:
        reports[shards].append(asyncio.run(run_loadgen(
            detector,
            payloads,
            config=GatewayConfig(
                queue_bound=max(64, len(payloads)), policy="block"
            ),
            shards=shards,
            connections=4,
            window=16,
        )))
    return {
        "requests": len(payloads),
        "c1_rps": statistics.median(r.throughput_rps for r in reports[1]),
        "c2_rps": statistics.median(r.throughput_rps for r in reports[2]),
        "parity_ok": all(
            r.parity_ok
            and r.completed == r.requests and r.errors == 0
            for passes in reports.values() for r in passes
        ),
    }


def check_serving(probe: dict) -> str:
    """Serving guard verdict; raises AssertionError on regression.

    The committed artifact's parity and modeled speedup are floored by
    the sweep; this checks the live probe.
    """
    if not probe["parity_ok"]:
        raise AssertionError(
            "fleet probe lost parity with the offline engine"
        )
    efficiency = probe["c2_rps"] / probe["c1_rps"]
    if efficiency < MIN_PROBE_EFFICIENCY:
        raise AssertionError(
            f"2-shard fleet retains only {efficiency:.2f} of "
            f"single-shard capacity (floor {MIN_PROBE_EFFICIENCY}): "
            f"shard coordination overhead regressed"
        )
    return (
        f"serving guard OK: probe efficiency {efficiency:.2f} "
        f"(median c1 {probe['c1_rps']:.0f}, c2 {probe['c2_rps']:.0f} "
        f"req/s), parity OK"
    )


def _committed_shadow(payload: dict, *, generation: int):
    """Rebuild a ShadowReport from one committed bench round."""
    from repro.canary.shadow import ShadowReport

    return ShadowReport(
        mode="fleet",
        generation=generation,
        n_attacks=0,
        n_benign=0,
        incumbent_tpr=float(payload["incumbent_tpr"]),
        candidate_tpr=float(payload["candidate_tpr"]),
        incumbent_fpr=float(payload["incumbent_fpr"]),
        candidate_fpr=float(payload["candidate_fpr"]),
        verdict_flips=0,
        divergences=[],
    )


def check_canary(baseline: dict | None) -> str:
    """Canary guard verdict; raises AssertionError on any broken bar.

    Validates the committed artifact's acceptance bars, then replays
    the committed deltas through the current gate: the decisions must
    reproduce.  Churn is held at zero for the replay — the committed
    reject reason is the FPR budget, never churn, so the replay
    isolates the budget arithmetic.
    """
    if baseline is None:
        return (
            f"canary guard OK (no committed {CANARY_BASELINE_PATH} "
            f"baseline): nothing to validate yet"
        )
    from repro.canary.gate import (
        ChurnReport,
        GatePolicy,
        SignatureChurn,
        evaluate_gate,
    )

    ledger = baseline["data"]
    promote = ledger["promote"]
    reject = ledger["reject"]
    policy = GatePolicy(**ledger["policy"])
    if promote["outcome"] != "promoted" or promote["reasons"]:
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} promote round did not "
            f"promote cleanly: {promote['outcome']} "
            f"{promote['reasons']}"
        )
    if promote["divergences"] != 0:
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} promote round saw "
            f"{promote['divergences']} live-path divergences"
        )
    if promote["generation_after"] != promote["generation_before"] + 1:
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} promote round did not "
            f"advance exactly one generation"
        )
    if reject["outcome"] != "rejected" or (
        "fpr_budget" not in reject["reasons"]
    ):
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} reject round is not an "
            f"FPR-budget rejection: {reject['outcome']} "
            f"{reject['reasons']}"
        )
    if not reject["incumbent_unchanged"]:
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} records the rejection "
            f"mutating the incumbent"
        )
    if reject["generation_after"] != reject["generation_before"]:
        raise AssertionError(
            f"committed {CANARY_BASELINE_PATH} reject round moved the "
            f"live generation"
        )

    zero_churn = ChurnReport(
        entries=[SignatureChurn(0, "unchanged", 0.0, 0.0)],
        incumbent_size=1,
        candidate_size=1,
    )
    replayed_promote = evaluate_gate(
        _committed_shadow(
            promote, generation=promote["generation_after"]
        ),
        zero_churn,
        policy,
    )
    if not replayed_promote.promoted:
        raise AssertionError(
            f"gate semantics drifted: committed promote deltas now "
            f"reject with {replayed_promote.reasons}"
        )
    replayed_reject = evaluate_gate(
        _committed_shadow(
            reject, generation=reject["generation_before"]
        ),
        zero_churn,
        policy,
    )
    if replayed_reject.promoted or (
        "fpr_budget" not in replayed_reject.reasons
    ):
        raise AssertionError(
            f"gate semantics drifted: committed reject deltas now "
            f"decide {replayed_reject.reasons or ['promote']}"
        )
    return (
        f"canary guard OK: promote gen "
        f"{promote['generation_before']}->{promote['generation_after']} "
        f"with 0 divergences, reject held at fpr "
        f"{reject['candidate_fpr']:.4f} > budget "
        f"{policy.fpr_budget}, gate replay reproduces both decisions"
    )


def surfaces_measurement(detector) -> dict:
    """Recompute the surface ledger in the bench's exact configuration."""
    return load_bench_module("test_ext_surfaces").measure_surfaces(detector)


def check_surfaces(baseline: dict | None, fresh: dict) -> str:
    """Surfaces guard verdict; raises AssertionError on any drift."""
    bench = load_bench_module("test_ext_surfaces")
    for family, floor in bench.TPR_FLOORS.items():
        stats = fresh["families"][family]
        if stats["tpr"] < floor:
            raise AssertionError(
                f"surface family {family} TPR {stats['tpr']:.3f} "
                f"fell below its {floor:.2f} floor"
            )
        if stats["fpr"] > bench.FPR_CEILING:
            raise AssertionError(
                f"surface family {family} FPR {stats['fpr']:.4f} "
                f"exceeds the {bench.FPR_CEILING} ceiling"
            )
    for family in bench.LEGACY_BLIND_FAMILIES:
        if fresh["families"][family]["legacy_tpr"] != 0.0:
            raise AssertionError(
                f"legacy extraction now sees {family} traffic "
                f"(legacy_tpr "
                f"{fresh['families'][family]['legacy_tpr']:.3f}); "
                f"the blindness measurement is broken"
            )
    survival = fresh["evasion"]["survival_rate"]
    if baseline is None:
        return (
            f"surfaces guard OK (no committed {SURFACES_BASELINE_PATH} "
            f"baseline): floors clear, evasion survival {survival:.3f}"
        )
    ledger = baseline["data"]
    for section in ("families", "scanner", "evasion"):
        if fresh[section] != ledger.get(section):
            raise AssertionError(
                f"surface ledger drifted in '{section}': fresh "
                f"{json.dumps(fresh[section], sort_keys=True)[:300]} != "
                f"committed "
                f"{json.dumps(ledger.get(section), sort_keys=True)[:300]}"
                f"; re-run benchmarks/test_ext_surfaces.py and commit "
                f"{SURFACES_BASELINE_PATH}"
            )
    return (
        f"surfaces guard OK: ledger identical to committed baseline, "
        f"evasion survival {survival:.3f} "
        f"({fresh['evasion']['evaded']}/{fresh['evasion']['attacked']} "
        f"bases evaded), legacy-blind families hold at zero"
    )


def main() -> int:
    """Run all guard layers; returns a process exit code."""
    try:
        print(sweep_artifacts())
        from repro.conformance import train_default_detector

        detector = train_default_detector(DETECTOR_SEED)
        print(check(committed_baseline(), fresh_measurement(detector)))
        print(check_serving(serving_probe(detector)))
        print(check_canary(committed_baseline(CANARY_BASELINE_PATH)))
        print(check_surfaces(
            committed_baseline(SURFACES_BASELINE_PATH),
            surfaces_measurement(detector),
        ))
    except Exception as error:  # noqa: BLE001 - CI wants any failure loud
        print(f"bench guard FAILED: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
