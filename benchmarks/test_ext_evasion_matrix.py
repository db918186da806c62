"""Extension — evasion-technique detection matrix.

Localizes the Table V mechanism: which evasion classes each detector
survives.  Expected shape: every detector catches the plain payloads;
pSigene and ModSec (full normalization) hold up under encoding evasions;
Snort and Bro (single-pass decode) fall to double encoding, %u escapes,
fullwidth unicode, and inline-comment splitting.
"""

from benchlib import BenchResult
from repro.eval import format_table
from repro.eval.evasion import TECHNIQUES, evasion_matrix
from repro.ids import PSigeneDetector
from repro.ids.rulesets import (
    build_bro_ruleset,
    build_merged_snort_et_ruleset,
    build_modsec_ruleset,
)

#: pSigene handles the control row, and the normalizing detectors
#: survive the encoding techniques.
FLOORS = {
    "ext_evasion_matrix": (
        ("psigene_min_identity", ">=", 0.8),
        ("psigene_min_evasion_recall", ">=", 0.6),
        ("modsec_min_evasion_recall", ">=", 0.6),
    ),
}


def test_evasion_matrix(benchmark, bench_context, record, emit):
    nine, _ = bench_context.psigene_sets()
    detectors = [
        PSigeneDetector(nine, name="psigene"),
        build_modsec_ruleset(),
        build_merged_snort_et_ruleset(),
        build_bro_ruleset(),
    ]
    cells = benchmark.pedantic(
        evasion_matrix, args=(detectors,), rounds=1, iterations=1
    )
    by_key = {(c.technique, c.detector): c for c in cells}
    names = [d.name for d in detectors]
    rows = []
    for technique, _ in TECHNIQUES:
        rows.append(
            [technique] + [
                f"{by_key[(technique, name)].recall:.2f}"
                for name in names
            ]
        )
    table = format_table(
        ["EVASION TECHNIQUE"] + names, rows,
        title="Extension: per-technique recall",
    )
    record("ext_evasion_matrix", table)

    def recall(technique, detector):
        return by_key[(technique, detector)].recall

    evasion_techniques = ("double-encoding", "inline-comments",
                          "unicode-%u", "fullwidth-unicode")
    emit(BenchResult(
        bench="ext_evasion_matrix",
        kind="extension",
        seed=2012,
        metrics={
            "techniques": len(TECHNIQUES),
            "detectors": len(names),
            "psigene_min_identity": round(
                float(recall("identity", "psigene")), 6
            ),
            "psigene_min_evasion_recall": round(
                min(
                    float(recall(t, "psigene"))
                    for t in evasion_techniques
                ), 6
            ),
            "modsec_min_evasion_recall": round(
                min(
                    float(recall(t, "modsecurity"))
                    for t in evasion_techniques
                ), 6
            ),
        },
        data={
            "recall": {
                technique: {
                    name: round(float(recall(technique, name)), 6)
                    for name in names
                }
                for technique, _ in TECHNIQUES
            },
        },
    ))

    # The rule engines handle the control row too.
    for name in names[1:]:
        assert recall("identity", name) >= 0.8, name
    # Single-decode engines lose to at least two encoding techniques.
    for detector in ("snort-et", "bro"):
        beaten = sum(
            1 for technique in ("double-encoding", "unicode-%u",
                                "fullwidth-unicode", "inline-comments")
            if recall(technique, detector) < recall("identity", detector)
        )
        assert beaten >= 2, detector
