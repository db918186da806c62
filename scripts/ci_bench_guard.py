"""CI guard: every committed bench artifact must validate and hold its floor.

All benchmarks emit a machine-readable ``BENCH_<slug>.json`` next to their
text table under ``benchmarks/results/`` (the shared :mod:`repro.bench`
schema).  This guard holds the tree to that ledger in three layers:

**Layer 1 — schema sweep.**  Every ``BENCH_*.json`` on disk must validate
against the ``BenchResult`` schema and be byte-identical to its canonical
re-serialization (one writer, one byte layout — diffs stay reviewable).

**Layer 2 — per-bench floors.**  Every artifact slug must appear in the
``FLOORS`` table below and clear its floors — constant (metric, op, bound)
triples mirroring each bench's own acceptance assertions, so a regressed
artifact cannot be committed even when the bench run that produced it was
skipped.  A slug with no floors entry fails (unguarded artifact); a floors
entry with no artifact fails (missing trajectory point).

**Layer 3 — deep guards.**  Four benches get live re-measurement on top of
the committed numbers:

``BENCH_matching.json`` — the fused single-pass matcher is re-measured
fresh (canonical small detector, seeded fuzz corpus); verdicts must stay
bit-identical to the legacy path and the fresh speedup must hold 85% of
the committed baseline speedup (a ratio of ratios — insensitive to the
runner's absolute speed).

``BENCH_serving.json`` — a live 2-shard fleet probe must serve with
bit-exact parity and retain at least half of single-shard capacity.

``BENCH_canary.json`` — the committed promote/reject rounds replay
through the *current* gate implementation; both decisions must reproduce,
so gate-semantics drift fails CI before the live canary smoke step.

``BENCH_surfaces.json`` — the surface ledger is deterministic from
committed seeds, so the guard recomputes the exact bench configuration
and requires the fresh ledger to be *identical* to the committed one.

When a baseline artifact does not exist in HEAD (first run on a fresh
branch), the deep guards record what they measured and pass: there is
nothing to regress against yet.

Usage: ``PYTHONPATH=src python scripts/ci_bench_guard.py``
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

BASELINE_PATH = "benchmarks/results/BENCH_matching.json"
SERVING_BASELINE_PATH = "benchmarks/results/BENCH_serving.json"
CANARY_BASELINE_PATH = "benchmarks/results/BENCH_canary.json"
SURFACES_BASELINE_PATH = "benchmarks/results/BENCH_surfaces.json"
ALLOWED_FRACTION = 0.85
MIN_MODELED_SPEEDUP_AT_4 = 2.5
MIN_PROBE_EFFICIENCY = 0.5
PROBE_PAYLOAD_COUNT = 400
#: The bench context's UPGMA prototypes (``LINKAGE_PROTOTYPES`` in
#: benchmarks/test_figure2_heatmap.py), which figure2's peak ceiling is
#: sized for.
FIGURE2_LINKAGE_PROTOTYPES = 993

# Per-bench regression floors: slug -> ((metric, op, bound), ...).
# Each triple mirrors an acceptance assertion in the bench module that
# produced the artifact; ops are ">=", "<=", "==".  Derived-margin
# metrics (e.g. ``tpr_gain_40`` = TPR(+40%) − TPR(base)) turn the
# benches' cross-metric assertions into constant comparisons.
FLOORS: dict[str, tuple[tuple[str, str, object], ...]] = {
    "matching": (
        ("identical", "==", True),
        ("speedup", ">=", 3.0),
    ),
    "serving": (
        ("parity_ok", "==", True),
        ("modeled_speedup_at_4", ">=", MIN_MODELED_SPEEDUP_AT_4),
    ),
    "canary": (
        ("promoted", "==", True),
        ("rejected_fpr_budget", "==", True),
        ("incumbent_unchanged", "==", True),
    ),
    "surfaces": (
        ("scanner_detected_legacy", "==", 0),
        ("scanner_rate_full", ">=", 0.6),
        ("evasion_survival_rate", "<=", 1.0),
    ),
    "exp2_incremental": (
        ("tpr_gain_40", ">=", 0.0),
        ("tpr_gain_40", "<=", 0.25),
        ("fpr_cost_40", "<=", 0.002),
    ),
    "exp3_perdisci": (
        ("tpr", "<=", 0.35),
        ("fpr", "<=", 0.001),
        ("train_gap", ">=", 0.1),
        ("psigene_margin", ">=", 0.3),
    ),
    "exp4_performance": (
        ("slowdown_vs_modsec", ">=", 1.5),
        ("slowdown_vs_modsec", "<=", 100.0),
        ("slowdown_vs_bro", ">=", 1.5),
        ("psigene_max_us", "<=", 20_000.0),
    ),
    "exp4_parallel": (
        ("verdict_parity", "==", True),
        ("modeled_speedup_at_max", ">=", 1.2),
    ),
    "exp4_batch_extraction": (
        ("identical", "==", True),
        ("modeled_speedup_at_4", ">=", 1.5),
    ),
    "exp4_batch_matching": (
        ("identical", "==", True),
        ("modeled_speedup_at_4", ">=", 1.5),
    ),
    "ablation_binary_features": (
        ("fpr_penalty", ">=", 0.0),
        ("tpr_edge", ">=", -0.08),
    ),
    "ablation_blackhole_rule": (
        ("tpr_gain", ">=", -1e-6),
        ("fpr_cost", ">=", 0.0),
    ),
    "ablation_incremental_strategy": (
        ("iteration_savings", ">=", 1),
        ("warm_fpr", "<=", 0.005),
    ),
    "ablation_regularization": (
        ("weight_shrink", ">=", 0.0),
        ("min_tpr", ">=", 0.5),
    ),
    "ablation_selection_rule": (
        ("paper_biclusters", ">=", 5),
        ("paper_coverage", ">=", 0.6),
    ),
    "table1_vulndb": (
        ("printed_rows", "==", 4),
        ("coverage_ratio", "==", 1.0),
    ),
    "table2_feature_sources": (
        ("sources", "==", 3),
        ("initial_features", "==", 477),
        ("final_features", ">=", 80),
        ("final_features", "<=", 250),
    ),
    "table3_signature_features": (
        ("theta_consistent", "==", True),
        ("n_features", ">=", 1),
        ("n_features", "<=", 40),
    ),
    "table4_rulesets": (
        ("bro_rules", "==", 6),
        ("snort_rules", "==", 79),
        ("et_rules", "==", 4231),
        ("modsec_rules", "==", 34),
    ),
    "table5_accuracy": (
        ("psigene_tpr_sqlmap", ">=", 0.75),
        ("modsec_tpr_sqlmap", ">=", 0.9),
        ("bro_fpr", "==", 0.0),
        ("snort_fpr", "<=", 0.01),
    ),
    "table6_cluster_details": (
        ("n_signatures", ">=", 5),
        ("n_signatures", "<=", 9),
        ("size_spread", ">=", 1.5),
    ),
    "figure2_heatmap": (
        ("biclusters", ">=", 6),
        ("biclusters", "<=", 11),
        ("black_holes", ">=", 1),
        ("black_holes", "<=", 3),
        ("cophenetic", ">=", 0.6),
        # Phase 3's traced peak: at most two (n, n) float64 matrices at
        # the n linkage prototypes the ceiling is sized for.
        ("linkage_prototypes", "==", FIGURE2_LINKAGE_PROTOTYPES),
        (
            "bicluster_traced_peak_mib", "<=",
            2 * FIGURE2_LINKAGE_PROTOTYPES ** 2 * 8 / 2 ** 20,
        ),
    ),
    "figure3_roc": (
        ("best_partial_auc", ">=", 0.02),
        ("auc_spread", ">=", 0.0),
    ),
    "figure4_cumulative_tpr": (
        ("top_marginal", ">=", 0.1),
        ("set_tpr", ">=", 0.7),
    ),
    "ext_calibration": (
        ("ece", "<=", 0.12),
        ("brier", "<=", 0.1),
        ("low_bin_rate", "<=", 0.2),
        ("high_bin_rate", ">=", 0.8),
    ),
    "ext_drift": (
        ("min_tpr_before", ">=", 0.5),
        ("final_tpr_after", ">=", 0.7),
    ),
    "ext_evasion_matrix": (
        ("psigene_min_identity", ">=", 0.8),
        ("psigene_min_evasion_recall", ">=", 0.6),
        ("modsec_min_evasion_recall", ">=", 0.6),
    ),
    "serve_loadgen": (
        ("parity_ok", "==", True),
        ("tight_queue_shed_rate", "<=", 1.0),
    ),
    "obs_overhead": (
        ("overhead_fraction", "<=", 0.05),
        ("per_request_us", "<=", 100_000.0),
    ),
    "micro_substrates": (
        ("normalize_us", "<=", 100_000.0),
        ("extract_us", "<=", 100_000.0),
    ),
}


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
    artifact, missing floors entry, or missing artifact.
    """
    from repro.bench import dump_bench_json, list_artifacts, load_artifact

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
                f"through repro.bench.write_artifact"
            )
        slug = payload["bench"]
        seen.add(slug)
        floors = FLOORS.get(slug)
        if floors is None:
            raise AssertionError(
                f"{path}: bench '{slug}' has no FLOORS entry in "
                f"scripts/ci_bench_guard.py — every artifact must be "
                f"guarded"
            )
        for metric, op, bound in floors:
            if metric not in payload["metrics"]:
                raise AssertionError(
                    f"{path}: floors expect metric '{metric}' which the "
                    f"artifact does not record"
                )
            value = payload["metrics"][metric]
            ok = (
                value >= bound if op == ">=" else
                value <= bound if op == "<=" else
                value == bound
            )
            if not ok:
                raise AssertionError(
                    f"{path}: {metric}={value!r} violates floor "
                    f"'{metric} {op} {bound!r}'"
                )
    missing = sorted(set(FLOORS) - seen)
    if missing:
        raise AssertionError(
            f"floors defined but artifact missing for: {', '.join(missing)}"
            f" — run scripts/reproduce_all.py and commit the results"
        )
    return (
        f"artifact sweep OK: {len(paths)} artifacts schema-valid, "
        f"canonical, and clear of {sum(len(f) for f in FLOORS.values())} "
        f"floors across {len(FLOORS)} benches"
    )


def fresh_measurement() -> dict:
    """Benchmark the canonical small detector on the seeded fuzz corpus."""
    from repro.conformance import generate_corpus, train_default_detector
    from repro.match import bench_fused_matching

    detector = train_default_detector(2012)
    payloads = generate_corpus(seed=2012, budget="small")
    result = bench_fused_matching(detector.signature_set, payloads)
    return json.loads(result.to_json())


def check(baseline: dict | None, fresh: dict) -> str:
    """The guard's verdict line; raises AssertionError on regression."""
    speedup = fresh["metrics"]["speedup"]
    if not fresh["metrics"]["identical"]:
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


def serving_probe() -> dict:
    """A small live 2-shard fleet run: parity and retained capacity.

    Closed-loop over a slice of the deterministic replay trace, one
    shard then two, on the same host.  Returns measured throughputs and
    the parity verdict — cheap enough for every CI run, live enough to
    catch a fleet that no longer serves or diverges from the offline
    engine.
    """
    import asyncio

    from repro.conformance import train_default_detector
    from repro.serve import GatewayConfig, build_load_trace, run_loadgen

    detector = train_default_detector(2012)
    trace = build_load_trace(seed=7, n_benign=300, n_vulnerabilities=6)
    payloads = trace.payloads()[:PROBE_PAYLOAD_COUNT]
    reports = {}
    for shards in (1, 2):
        reports[shards] = asyncio.run(run_loadgen(
            detector,
            payloads,
            config=GatewayConfig(
                queue_bound=max(64, len(payloads)), policy="block"
            ),
            shards=shards,
            connections=4,
            window=16,
        ))
    return {
        "requests": len(payloads),
        "c1_rps": reports[1].throughput_rps,
        "c2_rps": reports[2].throughput_rps,
        "parity_ok": all(
            r.parity is not None and r.parity.ok
            and r.completed == r.requests and r.errors == 0
            for r in reports.values()
        ),
    }


def check_serving(baseline: dict | None, probe: dict) -> str:
    """Serving guard verdict; raises AssertionError on regression."""
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
    if baseline is None:
        return (
            f"serving guard OK (no committed {SERVING_BASELINE_PATH} "
            f"baseline): probe efficiency {efficiency:.2f}, parity OK"
        )
    metrics = baseline["metrics"]
    modeled = float(metrics.get("modeled_speedup_at_4", 0.0))
    if modeled < MIN_MODELED_SPEEDUP_AT_4:
        raise AssertionError(
            f"committed {SERVING_BASELINE_PATH} modeled_speedup_at_4 "
            f"{modeled:.2f}x < {MIN_MODELED_SPEEDUP_AT_4}x bar"
        )
    if not metrics.get("parity_ok", False):
        raise AssertionError(
            f"committed {SERVING_BASELINE_PATH} records parity_ok=false"
        )
    return (
        f"serving guard OK: baseline modeled speedup {modeled:.2f}x "
        f">= {MIN_MODELED_SPEEDUP_AT_4}x at 4 shards, "
        f"probe efficiency {efficiency:.2f}, parity OK"
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


def _bench_surfaces_module():
    """The surfaces bench module, loaded from its file.

    The guard reuses the bench's own ``measure_surfaces`` and floors so
    there is exactly one definition of the measured configuration — a
    drifting copy here would make "identical to the artifact" vacuous.
    """
    path = os.path.join("benchmarks", "test_ext_surfaces.py")
    spec = importlib.util.spec_from_file_location(
        "_bench_ext_surfaces", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def surfaces_measurement() -> dict:
    """Recompute the surface ledger in the bench's exact configuration."""
    from repro.conformance import train_default_detector

    bench = _bench_surfaces_module()
    return bench.measure_surfaces(train_default_detector(bench.SEED))


def check_surfaces(baseline: dict | None, fresh: dict) -> str:
    """Surfaces guard verdict; raises AssertionError on any drift."""
    bench = _bench_surfaces_module()
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
        baseline = committed_baseline()
        fresh = fresh_measurement()
        print(check(baseline, fresh))
        serving = committed_baseline(SERVING_BASELINE_PATH)
        probe = serving_probe()
        print(check_serving(serving, probe))
        print(check_canary(committed_baseline(CANARY_BASELINE_PATH)))
        print(check_surfaces(
            committed_baseline(SURFACES_BASELINE_PATH),
            surfaces_measurement(),
        ))
    except Exception as error:  # noqa: BLE001 - CI wants any failure loud
        print(f"bench guard FAILED: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
