"""Evaluation harness: one driver per paper table and figure."""

from repro._lazy import lazy_exports

__all__ = [
    "TestDatasets",
    "build_test_datasets",
    "EvaluationContext",
    "table1_vulnerability_coverage",
    "table2_feature_sources",
    "table3_signature_features",
    "table4_ruleset_comparison",
    "table5_accuracy",
    "table6_cluster_details",
    "figure2_heatmap",
    "figure3_roc",
    "figure4_cumulative_tpr",
    "experiment2_incremental",
    "experiment3_perdisci",
    "experiment4_performance",
    "format_table",
    "percent",
    "tune_thresholds",
    "SignatureTuning",
    "render_report",
    "write_report",
    "html",
    "tables",
    "LineChart",
    "render_dendrogram_svg",
    "evasion_matrix",
    "evasion_payloads",
    "EvasionCell",
    "TECHNIQUES",
    "BASE_ATTACKS",
    "drift_study",
    "drifted_families",
    "DriftRound",
]

# Each export loads on first use: importing one submodule (the test
# traces in ``repro.eval.datasets``, say) loads only it and what it
# imports, not every experiment, report and chart.
__getattr__ = lazy_exports(__name__, {
    "datasets": ("TestDatasets", "build_test_datasets"),
    "experiments": (
        "EvaluationContext",
        "experiment2_incremental",
        "experiment3_perdisci",
        "experiment4_performance",
        "figure2_heatmap",
        "figure3_roc",
        "figure4_cumulative_tpr",
        "table1_vulnerability_coverage",
        "table2_feature_sources",
        "table3_signature_features",
        "table4_ruleset_comparison",
        "table5_accuracy",
        "table6_cluster_details",
    ),
    "drift": ("DriftRound", "drift_study", "drifted_families"),
    "evasion": (
        "BASE_ATTACKS", "TECHNIQUES", "EvasionCell", "evasion_matrix",
        "evasion_payloads",
    ),
    "report": (
        "format_table", "html", "percent", "render_report", "tables",
        "write_report",
    ),
    "svg": ("LineChart", "render_dendrogram_svg"),
    "tuning": ("SignatureTuning", "tune_thresholds"),
})
