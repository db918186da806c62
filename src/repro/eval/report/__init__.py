"""Evaluation reporting — one package, two renderings.

Historically ``repro.eval.report`` (the HTML report) and
``repro.eval.reporting`` (plain-text tables) sat side by side, one
character apart; this package merges them behind two entry points:

- :func:`html` — the self-contained HTML evaluation report
  (:mod:`repro.eval.report.html`).
- :func:`tables` — fixed-width text tables for terminal output
  (:mod:`repro.eval.report.text`).

The historical names (``render_report``, ``write_report``,
``format_table``, ``percent``) are re-exported unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.eval.report.html import render_report, write_report
from repro.eval.report.text import format_table, percent

__all__ = [
    "format_table",
    "html",
    "percent",
    "render_report",
    "tables",
    "write_report",
]


def html(context, *, title: str | None = None) -> str:
    """The full evaluation as a self-contained HTML document.

    Thin named entry point over
    :func:`repro.eval.report.html.render_report`.
    """
    return render_report(context, title=title)


def tables(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """One fixed-width text table.

    Thin named entry point over
    :func:`repro.eval.report.text.format_table`.
    """
    return format_table(headers, rows, title=title)
