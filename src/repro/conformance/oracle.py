"""The differential oracle: every path, one payload set, one report.

Running the same payloads through every registered detector path and
diffing the verdicts is the repo's end-to-end equivalence check: any
optimization PR that changes a verdict anywhere — a cache that returns a
stale normalization, a chunk boundary that drops a request, a wire
encoding that rounds a score — shows up as a :class:`Divergence` naming
the payload, the paths, and the field.

The oracle is observable: the whole run is a ``conform.run`` span with
one ``conform.path`` child per path, and the registry counters
``repro_conformance_payloads_total`` / ``repro_conformance_divergences_total``
make divergence rates scrapeable wherever the oracle runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.conformance.paths import (
    DEFAULT_WORKER_COUNTS,
    DetectorPath,
    default_paths,
)
from repro.conformance.verdict import (
    SCORE_TOLERANCE,
    ConformanceError,
    ConformanceReport,
    Divergence,
    Verdict,
    diff_verdicts,
)
from repro.obs import trace as obs_trace
from repro.obs.registry import get_registry

__all__ = [
    "Oracle",
    "extraction_divergences",
    "format_report",
]


def extraction_divergences(
    payloads: list[str],
    *,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    extractor=None,
) -> list[Divergence]:
    """Feature-extraction parity: batch matrices vs per-payload rows.

    Phase-2 extraction is the other fan-out in the repo (training-time
    rather than detection-time), so the oracle checks it alongside the
    verdict paths: ``extract_many(workers=N)`` at each worker count must
    produce a cell-identical matrix to the ``extract`` loop.  Mismatched
    cells become ``feature:<label>`` divergences against the
    ``extract-ref`` baseline.
    """
    from repro.features.extractor import FeatureExtractor

    extractor = extractor if extractor is not None else FeatureExtractor()
    baseline = np.zeros((len(payloads), len(extractor.catalog)), np.int32)
    for row, payload in enumerate(payloads):
        baseline[row] = extractor.extract(payload)
    out: list[Divergence] = []
    for workers in worker_counts:
        counts = extractor.extract_many(payloads, workers=workers).counts
        name = f"extract-w{workers}"
        if counts.shape != baseline.shape:
            out.append(Divergence(
                baseline="extract-ref", path=name, index=None,
                field="count",
                expected=list(baseline.shape),
                observed=list(counts.shape),
            ))
            continue
        for row, column in zip(*(counts != baseline).nonzero()):
            out.append(Divergence(
                baseline="extract-ref", path=name, index=int(row),
                field=f"feature:{extractor.catalog[int(column)].label}",
                expected=int(baseline[row, column]),
                observed=int(counts[row, column]),
                payload=payloads[int(row)][:120],
            ))
    return out


class Oracle:
    """Drives one detector through every applicable path and diffs.

    Args:
        detector: any engine-mountable detector.
        paths: the paths to execute; the first entry is the baseline all
            others are diffed against.  Defaults to
            :func:`~repro.conformance.paths.default_paths`.
        score_tolerance: absolute score tolerance for verdict diffs.
        check_extraction: also run the feature-extraction parity check
            (detector-independent, but part of the "one stable answer"
            contract because signature training consumes the matrices).
        extraction_workers: worker counts for the extraction check.
    """

    def __init__(
        self,
        detector,
        *,
        paths: list[DetectorPath] | None = None,
        score_tolerance: float = SCORE_TOLERANCE,
        check_extraction: bool = True,
        extraction_workers: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    ) -> None:
        self.detector = detector
        self.paths = paths if paths is not None else default_paths()
        if not self.paths:
            raise ValueError("need at least one path (the baseline)")
        self.score_tolerance = score_tolerance
        self.check_extraction = check_extraction
        self.extraction_workers = extraction_workers

    def run(self, payloads: list[str]) -> ConformanceReport:
        """Execute every applicable path over *payloads* and diff.

        A path that raises is reported as a single path-level ``error``
        divergence; the remaining paths still run, so one broken path
        never hides another's disagreement.
        """
        payloads = list(payloads)
        registry = get_registry()
        registry.counter(
            "repro_conformance_payloads_total",
            "Payloads driven through the conformance oracle.",
        ).inc(len(payloads))
        divergence_counter = registry.counter(
            "repro_conformance_divergences_total",
            "Verdict divergences found by the conformance oracle.",
        )
        report = ConformanceReport(
            detector=self.detector.name, n_payloads=len(payloads)
        )
        with obs_trace.span(
            "conform.run",
            detector=self.detector.name,
            payloads=len(payloads),
        ) as run_span:
            baseline_path = self.paths[0]
            baseline = self._run_path(baseline_path, payloads, report)
            if baseline is None:
                raise ConformanceError(
                    f"baseline path {baseline_path.name!r} failed; "
                    "nothing to compare against"
                )
            for path in self.paths[1:]:
                if not path.supports(self.detector):
                    continue
                verdicts = self._run_path(path, payloads, report)
                if verdicts is None:
                    continue
                report.divergences.extend(diff_verdicts(
                    baseline_path.name, baseline, path.name,
                    verdicts, payloads,
                    score_tolerance=self.score_tolerance,
                ))
            if self.check_extraction:
                with obs_trace.span(
                    "conform.path", path="extraction"
                ):
                    started = time.perf_counter()
                    report.divergences.extend(extraction_divergences(
                        payloads, worker_counts=self.extraction_workers,
                    ))
                    report.path_wall_s["extraction"] = (
                        time.perf_counter() - started
                    )
                    report.paths.append("extraction")
            run_span.set(divergences=len(report.divergences))
        if report.divergences:
            divergence_counter.inc(len(report.divergences))
        return report

    def _run_path(
        self,
        path: DetectorPath,
        payloads: list[str],
        report: ConformanceReport,
    ) -> list[Verdict] | None:
        """Execute one path; record wall time; errors become divergences."""
        report.paths.append(path.name)
        with obs_trace.span("conform.path", path=path.name):
            started = time.perf_counter()
            try:
                verdicts = path.run(self.detector, payloads)
            except ConformanceError as exc:
                report.divergences.append(Divergence(
                    baseline=self.paths[0].name, path=path.name,
                    index=None, field="error",
                    expected="a verdict per payload", observed=str(exc),
                ))
                return None
            finally:
                report.path_wall_s[path.name] = (
                    time.perf_counter() - started
                )
        return verdicts


def format_report(report: ConformanceReport, *, max_lines: int = 20) -> str:
    """Human-readable multi-line rendering of one oracle run."""
    lines = [report.summary()]
    for name in report.paths:
        wall = report.path_wall_s.get(name, 0.0)
        bad = len(report.divergences_for(name))
        status = "ok" if not bad else f"{bad} divergence(s)"
        lines.append(f"  {name:<12} {wall:8.3f}s  {status}")
    shown = report.divergences[:max_lines]
    for divergence in shown:
        lines.append(f"  ! {divergence.describe()}")
    hidden = len(report.divergences) - len(shown)
    if hidden > 0:
        lines.append(f"  ... and {hidden} more divergence(s)")
    return "\n".join(lines)
