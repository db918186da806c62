"""Figure 2 — heat map with two dendrograms of the training matrix.

Paper: the 30,000 × 159 standardized matrix reordered by the two HAC
dendrograms exposes eleven biclusters, two of which (9 and 10) are black
holes; the sample dendrogram's cophenetic correlation coefficient is 0.92.

The bench also re-runs phase 3 (``PSigenePipeline.bicluster``) on the
context's training matrix under ``tracemalloc``: its traced allocation
peak must stay within one ``(n, n)`` float64 buffer at the linkage's
``n`` prototypes plus a measured allowance, and ``upgma``'s wall time at
that ``n`` is printed.
"""

import os
import tracemalloc

from benchlib import BenchResult, results_dir
from repro.cluster.heatmap import render_ppm
from repro.eval import figure2_heatmap
from repro.obs.trace import Tracer

#: Prototypes (distinct transformed rows) the bench context's UPGMA
#: clusters; the memory ceiling below is sized for exactly this n.
LINKAGE_PROTOTYPES = 993
#: What phase 3 holds beside its one (n, n) buffer: the clustered rows'
#: counts as float64, their prototypes and fixed-size block temporaries.
#: Measured at 2.5 MiB; a condensed copy of the distances (3.8 MiB at
#: this n) would overrun it.
BICLUSTER_ALLOWANCE_MIB = 3.0
#: Phase 3's traced-peak ceiling: one (n, n) float64 buffer plus the
#: allowance.
BICLUSTER_PEAK_CEILING_MIB = (
    LINKAGE_PROTOTYPES ** 2 * 8 / 2 ** 20 + BICLUSTER_ALLOWANCE_MIB
)
#: How far two runs' raw traced peaks may differ.  numpy's small-buffer
#: caches and Python's free lists move the peak by about a KiB; an extra
#: (n, n) row block or matrix would move it by megabytes.
PEAK_REPEAT_TOLERANCE_BYTES = 64 * 2 ** 10
#: The paper's shape (eleven biclusters, two black holes, a high
#: cophenetic coefficient), and phase 3's measured memory: one (n, n)
#: buffer, at the n the ceiling is sized for.
FLOORS = {
    "figure2_heatmap": (
        ("biclusters", ">=", 6),
        ("biclusters", "<=", 11),
        ("black_holes", ">=", 1),
        ("black_holes", "<=", 3),
        ("cophenetic", ">", 0.6),
        ("linkage_prototypes", "==", LINKAGE_PROTOTYPES),
        ("bicluster_traced_peak_mib", "<=", BICLUSTER_PEAK_CEILING_MIB),
    ),
}


def traced_bicluster_peak_bytes(context) -> int:
    """Traced allocation peak of one phase-3 run, in bytes."""
    tracemalloc.start()
    try:
        context.pipeline.bicluster(context.result.matrix)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed_linkage(context) -> tuple[int, float]:
    """(prototypes, upgma wall seconds) of one traced phase-3 run."""
    tracer = Tracer()
    with tracer.activate():
        context.pipeline.bicluster(context.result.matrix)
    (linkage,) = [
        row for row in tracer.phase_summaries()
        if row["name"] == "cluster.linkage"
    ]
    return linkage["attrs"]["prototypes"], linkage["wall_s"]


def test_figure2(benchmark, bench_context, record, emit):
    heatmap, text = benchmark.pedantic(
        figure2_heatmap, args=(bench_context,), rounds=1, iterations=1
    )
    cophenetic = bench_context.result.biclustering.cophenetic_correlation
    black_holes = sum(
        1 for b in bench_context.result.biclusters if b.is_black_hole
    )
    total = len(bench_context.result.biclusters)
    peaks = [traced_bicluster_peak_bytes(bench_context) for _ in range(2)]
    peak_mib = round(max(peaks) / 2 ** 20, 1)
    prototypes, upgma_s = timed_linkage(bench_context)
    header = (
        f"Figure 2 (text rendering; right margin = bicluster id)\n"
        f"biclusters selected: {total} (paper: 11), black holes: "
        f"{black_holes} (paper: 2), cophenetic correlation: "
        f"{cophenetic:.3f} (paper: 0.92)\n"
        f"phase 3 at n={prototypes} prototypes: traced peak "
        f"{peak_mib:.1f} MiB (ceiling {BICLUSTER_PEAK_CEILING_MIB:.2f}), "
        f"upgma wall {upgma_s * 1000:.0f} ms\n"
    )
    record("figure2_heatmap", header + text)

    render_ppm(heatmap, os.path.join(results_dir(), "figure2_heatmap.ppm"))

    labels = heatmap.row_cluster_of
    nonzero = labels[labels > 0]
    transitions = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    emit(BenchResult(
        bench="figure2_heatmap",
        kind="figure",
        seed=2012,
        metrics={
            "biclusters": total,
            "black_holes": black_holes,
            "cophenetic": round(float(cophenetic), 6),
            "row_transitions": transitions,
            "heatmap_rows": int(heatmap.z.shape[0]),
            "heatmap_cols": int(heatmap.z.shape[1]),
            "bicluster_traced_peak_mib": peak_mib,
            "linkage_prototypes": prototypes,
        },
    ))

    # The heatmap rows must group bicluster members contiguously.
    assert transitions <= total + 2
    # Phase 3's traced peak is repeatable.
    assert abs(peaks[0] - peaks[1]) <= PEAK_REPEAT_TOLERANCE_BYTES
