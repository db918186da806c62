"""Table I — July 2012 SQLi vulnerabilities and the corpus coverage check.

Paper: four example rows (Joomla RSGallery CVE-2012-3554, Drupal
Addressbook CVE-2012-2306, Moodle feedback CVE-2012-3395, RTG
CVE-2012-3881); Section II-A reports that for every one of the ~30
high/medium-risk MySQL-backed vulnerabilities of that month, the crawled
dataset contained launchable attack samples.
"""

from benchlib import BenchResult
from repro.eval import format_table, table1_vulnerability_coverage

#: The paper's four printed rows, and samples for every reviewed
#: vulnerability.
FLOORS = {
    "table1_vulndb": (
        ("printed_rows", "==", 4),
        ("coverage_ratio", "==", 1.0),
    ),
}


def test_table1(benchmark, bench_context, record, emit):
    result = benchmark.pedantic(
        table1_vulnerability_coverage, args=(bench_context,),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["VULNERABILITY", "CVE ID"],
        [[r["vulnerability"], r["cve"]] for r in result["table1_rows"]],
        title=(
            "Table I (reproduced records); coverage "
            f"{result['covered']}/{result['cohort_size']} (paper: all ~30)"
        ),
    )
    record("table1_vulndb", table)

    emit(BenchResult(
        bench="table1_vulndb",
        kind="table",
        seed=2012,
        metrics={
            "printed_rows": len(result["table1_rows"]),
            "cohort_size": int(result["cohort_size"]),
            "covered": int(result["covered"]),
            "coverage_ratio": round(
                float(result["covered"] / result["cohort_size"]), 6
            ),
        },
        data={"rows": result["table1_rows"]},
    ))

    assert result["cohort_size"] >= 28
