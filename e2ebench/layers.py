"""Per-layer timing from outside the program: spans around public calls.

Spans carry a name, start and end (``perf_counter_ns``), a parent and a
request id.  They stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the part of it that its
children cover.  No span is recorded inside the program: every timed
interval brackets one call into a layer's public function.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import PipelineConfig, PSigenePipeline
from repro.ids.rules import Detection
from repro.match import FusedSetEvaluator
from repro.match.classify import KIND_LITERAL, KIND_WORD
from repro.obs.registry import get_registry
from repro.serve.protocol import (
    decode_framed_request,
    encode_detection,
    encode_surface_detection,
)
from repro.serve.telemetry import Telemetry
from repro.surfaces import score_request, scoring_units

_clock = time.perf_counter_ns


class Spans:
    """In-memory span store."""

    def __init__(self) -> None:
        # (span id, parent id or -1, name, request id or -1, start, end)
        self.records: list[tuple[int, int, str, int, int, int]] = []

    def add(
        self, name: str, start: int, end: int,
        parent: int = -1, request: int = -1,
    ) -> int:
        span_id = len(self.records)
        self.records.append((span_id, parent, name, request, start, end))
        return span_id

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time in microseconds."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, parent, _, _, start, end in self.records:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, start, end in self.records:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = out.setdefault(
                name, {"count": 0, "total_us": 0.0, "self_us": 0.0}
            )
            entry["count"] += 1
            entry["total_us"] += (end - start) / 1e3
            entry["self_us"] += (end - start - covered) / 1e3
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(
                '{"fields":["id","parent","name","request","start_ns",'
                '"end_ns"],"spans":[\n'
            )
            for index, record in enumerate(self.records):
                handle.write(("," if index else "") + json.dumps(record) + "\n")
            handle.write("]}\n")


def freeze_heap() -> None:
    """Exempt everything this process holds so far from garbage collection.

    The benchmark's own inputs and spans would otherwise make every
    collection the program triggers scan them too, charging the
    benchmark's bookkeeping to the program under test.
    """
    gc.collect()
    gc.freeze()


def serving_matcher(signature_set):
    """The fused matcher a signature set scores through.

    ``FusedSetEvaluator`` draws it from the process-wide memo, so it is
    the same object the set's own evaluator uses.
    """
    return FusedSetEvaluator(signature_set.signatures).matcher


_BLOCK = 32
_TOTALS = (
    "request", "decode", "extract", "fold", "normalize", "count",
    "evaluate", "encode", "record",
)


class _Replay:
    """State of one in-process replay: spans, time totals, unit counts."""

    def __init__(self, spans: Spans, detector, framed: bool, surfaces) -> None:
        self.spans = spans
        self.detector = detector
        self.framed = framed
        self.surfaces = surfaces
        self.signature_set = detector.signature_set
        self.matcher = serving_matcher(self.signature_set)
        self.gated = np.array(
            [p.kind not in (KIND_LITERAL, KIND_WORD) for p in self.matcher.plans],
            dtype=bool,
        )
        self.telemetry = Telemetry()
        self.totals = dict.fromkeys(_TOTALS, 0)
        self.block_closures: list[float] = []
        self.alerts = 0
        self.raw_units: list[str] = []
        # Over the count_vector pass only: the calls, the non-empty
        # non-ASCII units among them, and the MatchStats deltas.
        self.counted = 0
        self.non_ascii = 0
        self.found = 0
        self.finditer = 0
        self.fallbacks = 0

    def timed(self, total: str, name: str, parent: int, request_id: int, call, *args):
        start = _clock()
        value = call(*args)
        end = _clock()
        self.spans.add(name, start, end, parent, request_id)
        self.totals[total] += end - start
        return value

    def whole(self, block) -> None:
        """The whole request, as a server worker runs it."""
        for request_id, wire, request in block:
            if self.framed:
                detection = self.timed(
                    "request", "ids.request", -1, request_id,
                    self.detector.inspect_request, request, self.surfaces,
                )
            else:
                detection = self.timed(
                    "request", "ids.request", -1, request_id,
                    self.detector.inspect, _payload(wire),
                )
            self.alerts += bool(detection.alert)

    def stages(self, block) -> None:
        """Every stage of each request, each timed on its own."""
        for request_id, wire, _ in block:
            # The stage span's end is patched in once its children ran.
            root = self.spans.add("stages", _clock(), 0, -1, request_id)
            if self.framed:
                body = wire[wire.index(b"\n") + 1:-1]
                decoded, selection = self.timed(
                    "decode", "protocol.decode", root, request_id,
                    lambda: decode_framed_request(
                        body, default_surfaces=self.surfaces
                    ),
                )
                units = self.timed(
                    "extract", "surfaces.extract", root, request_id,
                    scoring_units, decoded, selection,
                )
                values = [unit.value for unit in units]
            else:
                values = [_payload(wire)]
            unit_detections = []
            for value in values:
                self.raw_units.append(value)
                normalized = self.timed(
                    "normalize", "normalize", root, request_id,
                    self.signature_set.normalizer, value,
                )
                score, fired = self.timed(
                    "evaluate", "core.evaluate_normalized", root, request_id,
                    self.signature_set.evaluate_normalized, normalized,
                )
                unit_detections.append(
                    Detection(alert=bool(fired), score=score, matched_sids=fired)
                )
            if self.framed:
                # score_request fed the unit verdicts above: extraction
                # (again) plus the per-surface fold.
                verdicts = iter(unit_detections)
                detection = self.timed(
                    "fold", "surfaces.score_request", root, request_id,
                    score_request, lambda _value: next(verdicts),
                    decoded, selection,
                )
                encode = encode_surface_detection
            else:
                detection = unit_detections[0]
                encode = encode_detection
            self.timed(
                "encode", "protocol.encode", root, request_id, encode, detection, 1
            )
            self.timed("record", "obs.record", root, request_id, self.record, detection)
            span = self.spans.records[root]
            self.spans.records[root] = span[:5] + (_clock(),)

    def record(self, detection) -> None:
        """What the server's worker records per answered request."""
        self.telemetry.record_inspection(detection.alert, 1e-4)
        self.telemetry.observe("latency", 2e-4)
        if self.framed:
            self.telemetry.record_surfaces(detection)

    def counts(self, normalized_units) -> None:
        """``count_vector`` alone, per unit.

        The other two passes call ``count_vector`` too, through the same
        memoised matcher, so the ``MatchStats`` deltas are taken around
        this pass alone: one call per unit.
        """
        stats = self.matcher.stats
        finditer, fallbacks = stats.finditer_calls, stats.ascii_fallbacks
        for request_id, normalized in normalized_units:
            counts = self.timed(
                "count", "match.count_vector", -1, request_id,
                self.matcher.count_vector, normalized,
            )
            ascii_only = normalized.isascii()
            mask = self.gated if ascii_only else slice(None)
            self.found += int(np.count_nonzero(counts[mask]))
            self.non_ascii += bool(normalized) and not ascii_only
        self.counted += len(normalized_units)
        self.finditer += stats.finditer_calls - finditer
        self.fallbacks += stats.ascii_fallbacks - fallbacks

    def normalized_units(self, block) -> list[tuple[int, str]]:
        """Untimed: every unit of *block*, normalized."""
        out = []
        for request_id, wire, request in block:
            if self.framed:
                values = [u.value for u in scoring_units(request, self.surfaces)]
            else:
                values = [_payload(wire)]
            out.extend(
                (request_id, self.signature_set.normalizer(v)) for v in values
            )
        return out


def _payload(wire: bytes) -> str:
    """A line-protocol wire decoded as the server decodes it."""
    return wire[:-1].decode("utf-8", errors="replace")


def replay_requests(
    spans: Spans,
    detector,
    items: list[tuple[int, bytes, object]],
    *,
    framed: bool,
    surfaces,
) -> tuple[dict[str, float], dict[str, float]]:
    """Feed wires through each layer's public function, in process.

    *items* holds ``(request id, wire bytes, HttpRequest)``.  They are
    replayed in blocks, each in three passes, so that the passes of one
    block see the same host conditions; the passes rotate their order
    from block to block, so none is always the one that finds the
    block's data in cache:

    - the whole request, as a server worker runs it
      (``PSigeneDetector.inspect`` or ``inspect_request``);
    - stage by stage: frame decode, ``scoring_units``, then per unit
      normalize and ``SignatureSet.evaluate_normalized``, then the
      per-surface fold of ``score_request`` (fed those unit verdicts),
      response encode and telemetry recording;
    - ``FusedMatcher.count_vector`` per unit; scoring is
      ``evaluate_normalized`` minus this.

    The stages inside a request (``score_request``'s time holds the
    extraction; lines have neither) should add up to the whole request:
    ``ids.closure`` is their ratio, the median over blocks, since a burst
    of host contention can land on one pass of a block and not the
    others.

    Returns the per-layer metrics and a census of what was replayed; its
    ``replayed_non_ascii_unit_share`` (non-empty normalized units that are
    not ASCII) must equal ``match.ascii_fallback_share``.  Automaton
    overflows are counted over all three passes: the matcher drops its
    automaton after the first one.
    """
    replay = _Replay(spans, detector, framed, surfaces)
    overflows = replay.matcher.stats.dfa_overflows
    gc.collect()
    gc.disable()
    try:
        for number, start in enumerate(range(0, len(items), _BLOCK)):
            block = items[start:start + _BLOCK]
            units = replay.normalized_units(block)
            before = dict(replay.totals)
            passes = [
                lambda: replay.whole(block),
                lambda: replay.stages(block),
                lambda: replay.counts(units),
            ]
            for index in range(3):
                passes[(number + index) % 3]()
            took = {k: replay.totals[k] - before[k] for k in replay.totals}
            replay.block_closures.append(
                (took["fold"] + took["normalize"] + took["evaluate"])
                / took["request"]
            )
    finally:
        gc.enable()

    n = len(items)
    units = replay.counted
    per_req = {k: v / 1e3 / n for k, v in replay.totals.items()}
    per_unit = {
        k: replay.totals[k] / 1e3 / units for k in ("normalize", "count", "evaluate")
    }
    metrics = {
        "protocol.decode_us": per_req["decode"],
        "protocol.encode_us": per_req["encode"],
        "surfaces.extract_us": per_req["extract"],
        "surfaces.units_per_req": units / n,
        "normalize.us_per_unit": per_unit["normalize"],
        "normalize.repeat_share": (
            1 - len(set(replay.raw_units)) / len(replay.raw_units)
        ),
        "match.count_us_per_unit": per_unit["count"],
        "match.finditer_per_unit": replay.finditer / units,
        "match.ascii_fallback_share": replay.fallbacks / units,
        "match.dfa_overflows": float(replay.matcher.stats.dfa_overflows - overflows),
        "match.finditer_yield": (
            replay.found / replay.finditer if replay.finditer else 0.0
        ),
        "core.score_us_per_unit": per_unit["evaluate"] - per_unit["count"],
        "ids.request_us": per_req["request"],
        "ids.closure": statistics.median(replay.block_closures),
        "ids.alert_share": replay.alerts / n,
        "obs.record_us_per_req": per_req["record"],
    }
    census = {
        "replayed_requests": n,
        "replayed_units": units,
        "replayed_non_ascii_unit_share": replay.non_ascii / units,
    }
    return metrics, census


class _PhaseTimedPipeline(PSigenePipeline):
    """``PSigenePipeline`` with each of its four phase methods bracketed
    by a span; ``run`` itself is untouched and calls them one at a time.

    Timing the phases inside the very ``run`` they belong to makes
    ``pipeline.closure`` immune to the host getting faster or slower
    between two separate trainings.
    """

    def __init__(self, spans: Spans, root: int) -> None:
        super().__init__(PipelineConfig(workers=2))
        self.spans = spans
        self.root = root
        self.took: dict[str, int] = {}

    def _timed(self, name: str, method, *args):
        start = _clock()
        value = method(*args)
        end = _clock()
        self.spans.add(name, start, end, self.root)
        self.took[name] = end - start
        return value

    def collect_samples(self):
        return self._timed("crawler.collect_samples", super().collect_samples)

    def extract_features(self, samples):
        return self._timed(
            "features.extract_features", super().extract_features, samples
        )

    def bicluster(self, matrix):
        return self._timed("cluster.bicluster", super().bicluster, matrix)

    def generalize(self, biclusters, matrix, benign):
        return self._timed(
            "learn.generalize", super().generalize, biclusters, matrix, benign
        )


def trace_training(spans: Spans) -> tuple[dict[str, float], str, float]:
    """One ``PSigenePipeline.run`` with its four phases timed inside it.

    Returns the per-layer numbers, the trained set's JSON and the run's
    wall time in seconds.
    """
    from repro.core import signature_set_to_json

    payloads_seen = get_registry().counter(
        "repro_crawl_payloads_total", "Payload strings extracted before dedup."
    )
    freeze_heap()
    seen0 = payloads_seen.value
    start = _clock()
    root = spans.add("pipeline.run", start, 0)
    pipeline = _PhaseTimedPipeline(spans, root)
    result = pipeline.run()
    end = _clock()
    spans.records[root] = spans.records[root][:5] + (end,)
    took = {name: ns / 1e9 for name, ns in pipeline.took.items()}
    seen = payloads_seen.value - seen0
    extracted = len(result.samples) + pipeline.config.n_benign_train
    layer = {
        "crawler.collect_s": took["crawler.collect_samples"],
        "crawler.dedup_yield": len(result.samples) / seen if seen else 0.0,
        "features.extract_s": took["features.extract_features"],
        "features.us_per_payload": (
            took["features.extract_features"] * 1e6 / extracted
        ),
        "features.kept": float(result.pruning.final_features),
        "cluster.bicluster_s": took["cluster.bicluster"],
        "cluster.prototypes": float(len(result.biclustering.prototype_weights)),
        "learn.generalize_s": took["learn.generalize"],
        "learn.signatures": float(len(result.signature_set)),
        "pipeline.closure": sum(took.values()) / ((end - start) / 1e9),
    }
    return layer, signature_set_to_json(result.signature_set), (end - start) / 1e9
