"""Extension — multi-surface detection rates and the evasion arms race.

Measures what the surface redesign bought: per-surface TPR/FPR of the
canonical detector over the new corpus families (scored through the
full surface selection), the legacy query+form extraction's blindness
to the same traffic, the surface scanner-simulator's detectability, and
the adversarial evasion search's survival rate against the detector.

Everything is seeded, so the committed ``results/BENCH_surfaces.json``
is a deterministic ledger: ``scripts/ci_bench_guard.py`` recomputes the
same configuration and fails CI when any number moves without the
artifact being re-committed.
"""

from benchlib import BenchResult
from repro.conformance import train_default_detector
from repro.corpus import SURFACE_FAMILIES, SurfaceCorpusGenerator, VulnerableWebApp
from repro.eval import format_table
from repro.http import LABEL_ATTACK
from repro.scanners import SurfaceScanner
from repro.surfaces import (
    DEFAULT_SURFACES,
    EvasionSearch,
    LEGACY_SURFACES,
    evasion_bases,
    score_request,
)

#: The ledger's fixed configuration — the guard recomputes exactly this.
SEED = 2012
FAMILY_COUNT = 60
EVASION_BASES = 24
EVASION_ROUNDS = 8
EVASION_BRANCHING = 6
SCANNER_VULNS = 6
SCANNER_SEED = 3

#: Acceptance floors for full-surface TPR per family; header injections
#: are short raw strings (worst case for signature coverage), so their
#: floor is lower.
TPR_FLOORS = {
    "json-body": 0.70,
    "cookie": 0.70,
    "header": 0.40,
    "multipart": 0.60,
    "second-order": 0.70,
}
FPR_CEILING = 0.02
#: Families whose attacks never touch query or form body — the legacy
#: extraction must be provably blind to them (the store leg of
#: second-order is an ordinary form POST, so it is excluded here).
LEGACY_BLIND_FAMILIES = ("json-body", "cookie", "header", "multipart")
#: The scanner's probes are invisible to legacy extraction and mostly
#: caught in full; the evasion survival rate is a tracked ledger value
#: (the guard pins it to the artifact), bounded here only as a rate.
FLOORS = {
    "surfaces": (
        ("scanner_detected_legacy", "==", 0),
        ("scanner_rate_full", ">=", 0.6),
        ("evasion_survival_rate", "<=", 1.0),
    ),
}


def measure_surfaces(detector) -> dict:
    """The full ledger body for one detector (deterministic from SEED)."""
    families = {}
    for family in SURFACE_FAMILIES:
        trace = SurfaceCorpusGenerator(seed=SEED).family_trace(
            family, FAMILY_COUNT
        )
        tp = fp = pos = neg = legacy_tp = 0
        for request in trace.requests:
            full = score_request(
                detector.inspect, request, DEFAULT_SURFACES
            )
            legacy = score_request(
                detector.inspect, request, LEGACY_SURFACES
            )
            if request.label == LABEL_ATTACK:
                pos += 1
                tp += bool(full.alert)
                legacy_tp += bool(legacy.alert)
            else:
                neg += 1
                fp += bool(full.alert)
        families[family] = {
            "attacks": pos,
            "benign": neg,
            "tpr": round(tp / pos, 4) if pos else 0.0,
            "fpr": round(fp / neg, 4) if neg else 0.0,
            "legacy_tpr": round(legacy_tp / pos, 4) if pos else 0.0,
        }

    scanner_trace = SurfaceScanner(
        VulnerableWebApp(seed=7, n_vulnerabilities=SCANNER_VULNS),
        seed=SCANNER_SEED,
    ).scan()
    scanner_full = sum(
        score_request(detector.inspect, r, DEFAULT_SURFACES).alert
        for r in scanner_trace.requests
    )
    scanner_legacy = sum(
        score_request(detector.inspect, r, LEGACY_SURFACES).alert
        for r in scanner_trace.requests
    )
    scanner = {
        "probes": len(scanner_trace),
        "detected_full": int(scanner_full),
        "detected_legacy": int(scanner_legacy),
        "rate_full": round(scanner_full / len(scanner_trace), 4),
    }

    evasion = EvasionSearch(
        detector.inspect,
        seed=SEED,
        rounds=EVASION_ROUNDS,
        branching=EVASION_BRANCHING,
    ).run(evasion_bases(seed=SEED, count=EVASION_BASES)).to_dict()

    return {
        "families": families,
        "scanner": scanner,
        "evasion": evasion,
    }


def test_surface_bench(record, emit):
    detector = train_default_detector(SEED)
    ledger = measure_surfaces(detector)
    families = ledger["families"]

    # Full-surface detection clears the per-family floors, cleanly.
    for family, floor in TPR_FLOORS.items():
        assert families[family]["tpr"] >= floor, (
            family, families[family]
        )
        assert families[family]["fpr"] <= FPR_CEILING, (
            family, families[family]
        )
    # The legacy extraction is blind to the non-form channels — this is
    # the gap the redesign exists to close, measured not assumed.
    for family in LEGACY_BLIND_FAMILIES:
        assert families[family]["legacy_tpr"] == 0.0, (
            family, families[family]
        )
    # The evasion search attacked real detections.
    evasion = ledger["evasion"]
    assert evasion["attacked"] > 0
    assert evasion["survival_rate"] >= 0.0

    emit(BenchResult(
        bench="surfaces",
        kind="extension",
        seed=SEED,
        metrics={
            "family_count": FAMILY_COUNT,
            "scanner_probes": ledger["scanner"]["probes"],
            "scanner_detected_full": ledger["scanner"]["detected_full"],
            "scanner_detected_legacy": (
                ledger["scanner"]["detected_legacy"]
            ),
            "scanner_rate_full": ledger["scanner"]["rate_full"],
            "evasion_attacked": evasion["attacked"],
            "evasion_evaded": evasion["evaded"],
            "evasion_survival_rate": evasion["survival_rate"],
        },
        data=ledger,
    ))

    rows = [
        [
            family,
            f"{families[family]['tpr']:.3f}",
            f"{families[family]['fpr']:.4f}",
            f"{families[family]['legacy_tpr']:.3f}",
        ]
        for family in SURFACE_FAMILIES
    ]
    rows.append([
        "scanner-probes",
        f"{ledger['scanner']['rate_full']:.3f}",
        "-",
        f"{ledger['scanner']['detected_legacy']}",
    ])
    table = format_table(
        ["SURFACE FAMILY", "TPR(full)", "FPR(full)", "TPR(legacy)"],
        rows,
        title=(
            f"Extension: per-surface detection "
            f"(evasion survival {evasion['survival_rate']:.3f}, "
            f"{evasion['evaded']}/{evasion['attacked']} bases evaded)"
        ),
    )
    record("ext_surfaces", table)
