"""Batched detector runs: the request side of Experiment 4's fan-out.

Where :meth:`~repro.features.extractor.FeatureExtractor.extract_many`
fans out over *samples at training time*, :func:`run_batch` fans out over
*requests at detection time*, through the same
:func:`~repro.parallel.fanout.process_map`.  Each chunk is scored by a
private detector copy whose signature set normalizes through a 4,096-entry
LRU, so repeated payloads skip normalization and every signature is
evaluated once against the shared normalized form
(:meth:`~repro.core.signature.SignatureSet.evaluate`).

Verdicts are order-preserving and identical to the serial
:meth:`~repro.ids.engine.SignatureEngine.run` on the legacy surface
selection (asserted by the parity tests): requests are independent, so
chunking cannot change any per-request decision.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.signature import SignatureSet
from repro.http.traffic import Trace
from repro.ids.engine import Alert, Detector, EngineRun
from repro.obs import trace as obs_trace
from repro.parallel.cache import CachedNormalizer
from repro.parallel.fanout import process_map


def _score_chunk(
    detector: Detector, payloads: list[str]
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """``process_map`` work: verdict columns for one chunk.

    Returns the alert flags, the scores, and the fired sids of the
    alerting rows only, in row order.
    """
    flags = np.zeros(len(payloads), dtype=bool)
    scores = np.zeros(len(payloads), dtype=np.float64)
    matched: list[list[int]] = []
    for row, payload in enumerate(payloads):
        detection = detector.inspect(payload)
        scores[row] = detection.score
        if detection.alert:
            flags[row] = True
            matched.append(list(detection.matched_sids))
    return flags, scores, matched


def _with_cached_normalizer(detector: Detector) -> Detector:
    """A detector clone whose signature set normalizes through an LRU.

    Detectors without a ``signature_set`` (the baseline rulesets) are
    returned unchanged — they manage their own matching internals.
    """
    signature_set = getattr(detector, "signature_set", None)
    if not isinstance(signature_set, SignatureSet):
        return detector
    clone = copy.copy(detector)
    clone.signature_set = SignatureSet(
        signature_set.signatures,
        normalizer=CachedNormalizer(signature_set.normalizer),
    )
    return clone


def run_batch(
    detector: Detector, trace: Trace, *, workers: int = 1
) -> EngineRun:
    """Inspect the flattened payloads of *trace* in chunks.

    Args:
        detector: any engine-mountable detector; it must pickle when
            ``workers > 1`` (all in-tree detectors do).
        trace: requests to inspect.
        workers: process count; 1 keeps everything in-process.

    Returns:
        An :class:`EngineRun` whose alerts and flags match the serial
        :meth:`SignatureEngine.run` exactly, with every request's score.

    Raises:
        ValueError: when ``workers < 1``.
    """
    with obs_trace.span(
        "engine.run_batch",
        detector=detector.name,
        requests=len(trace),
        workers=workers,
    ) as batch_span:
        columns = process_map(
            _score_chunk,
            _with_cached_normalizer(detector),
            trace.payloads(),
            workers,
        )
        flags = np.concatenate([column[0] for column in columns])
        scores = np.concatenate([column[1] for column in columns])
        matched = [sids for column in columns for sids in column[2]]
        run = EngineRun(
            detector=detector.name,
            trace_name=trace.name,
            alert_flags=flags,
            scores=scores,
        )
        run.alerts = [
            Alert(
                request_index=int(index),
                detector=detector.name,
                score=float(scores[index]),
                matched=sids,
            )
            for index, sids in zip(np.flatnonzero(flags), matched)
        ]
        batch_span.set(alerts=run.alert_count)
    return run
