"""Tests for the merged repro.eval.report package."""

import importlib
import warnings


class TestEntryPoints:
    def test_tables_matches_format_table(self):
        from repro.eval.report import format_table, tables

        headers = ["A", "B"]
        rows = [[1, 2], [3, 4]]
        assert tables(headers, rows, title="t") == format_table(
            headers, rows, title="t"
        )

    def test_html_is_render_report(self, context):
        from repro.eval.report import html, render_report

        assert html(context, title="x") == render_report(
            context, title="x"
        )

    def test_package_exports_historical_names(self):
        import repro.eval.report as report

        for name in (
            "render_report", "write_report", "format_table", "percent",
        ):
            assert hasattr(report, name), name

    def test_eval_top_level_still_exports_everything(self):
        import repro.eval as evaluation

        for name in (
            "format_table", "percent", "render_report", "write_report",
            "html", "tables",
        ):
            assert hasattr(evaluation, name), name


class TestSubmodules:
    def test_submodules_import_cleanly(self):
        # importlib, not `from ... import html`: the package defines an
        # html() *function* that shadows the submodule as an attribute.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            html_module = importlib.import_module("repro.eval.report.html")
            text_module = importlib.import_module("repro.eval.report.text")
        assert hasattr(html_module, "render_report")
        assert hasattr(text_module, "format_table")
