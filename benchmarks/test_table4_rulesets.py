"""Table IV — comparison between SQLi rulesets.

Paper's rows: Bro 2.0 — 6 rules, 100% enabled, 100% regex; Snort 2920 —
79 rules, 61% enabled, 82% regex; Emerging Threats 7098 — 4231 rules, 0%
enabled, 99% regex; ModSecurity 2.2.4 — 34 rules, 100% enabled, 100%
regex.  Also: Bro's expressions are by far the longest (avg 247.7 chars),
Snort's the shortest (avg 27.1).
"""

import pytest

from benchlib import BenchResult
from repro.eval import format_table, table4_ruleset_comparison

PAPER = {
    "bro": (6, 100.0, 100.0),
    "snort": (79, 61.0, 82.0),
    "emerging-threats": (4231, 0.0, 99.0),
    "modsecurity": (34, 100.0, 100.0),
}
#: The paper's rule counts, exactly.
FLOORS = {
    "table4_rulesets": (
        ("bro_rules", "==", PAPER["bro"][0]),
        ("snort_rules", "==", PAPER["snort"][0]),
        ("et_rules", "==", PAPER["emerging-threats"][0]),
        ("modsec_rules", "==", PAPER["modsecurity"][0]),
    ),
}


def test_table4(benchmark, record, emit):
    rows = benchmark.pedantic(
        table4_ruleset_comparison, rounds=1, iterations=1
    )
    table = format_table(
        ["RULES DISTRIBUTION", "SQLi RULES", "ENABLED%", "REGEX%",
         "AVG PATTERN LEN"],
        [
            [r["rules"], r["sqli_rules"], r["enabled_pct"],
             r["regex_pct"], r["avg_pattern_len"]]
            for r in rows
        ],
        title="Table IV (measured) — paper values in module docstring",
    )
    record("table4_rulesets", table)

    measured = {r["rules"]: r for r in rows}
    emit(BenchResult(
        bench="table4_rulesets",
        kind="table",
        seed=2012,
        metrics={
            "bro_rules": int(measured["bro"]["sqli_rules"]),
            "snort_rules": int(measured["snort"]["sqli_rules"]),
            "et_rules": int(
                measured["emerging-threats"]["sqli_rules"]
            ),
            "modsec_rules": int(
                measured["modsecurity"]["sqli_rules"]
            ),
            "bro_avg_pattern_len": round(
                float(measured["bro"]["avg_pattern_len"]), 3
            ),
            "snort_avg_pattern_len": round(
                float(measured["snort"]["avg_pattern_len"]), 3
            ),
        },
        data={"rows": rows},
    ))
    for name, (_count, enabled, regex) in PAPER.items():
        row = measured[name]
        assert row["enabled_pct"] == pytest.approx(enabled, abs=2.0), name
        assert row["regex_pct"] == pytest.approx(regex, abs=3.0), name

    # Pattern-length ordering: Bro longest, Snort shortest.
    assert (
        measured["bro"]["avg_pattern_len"]
        > measured["modsecurity"]["avg_pattern_len"]
        > measured["snort"]["avg_pattern_len"]
    )
