"""Seeded inputs of every workload, and the census printed beside them.

The benchmark's ``--seed`` decides everything generated here: the
paper's three test traces and their interleaving, the multi-surface
frames, and the Poisson arrival schedules.  The program under test only
ever sees the generated requests.  The signatures the server loads and
the training jobs of ``train-eval`` use the program's default
``PipelineConfig``, so every seed is measured against the same trained
set and a seed changes the traffic, not the detector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.corpus.surfaces import SurfaceCorpusGenerator
from repro.eval.datasets import TestDatasets, build_test_datasets
from repro.http import LABEL_ATTACK, HttpRequest
from repro.serve.protocol import encode_framed_request
from repro.surfaces import LEGACY_SURFACES, parse_surfaces, scoring_units

#: Frames generated per seed for ``framed-surfaces``.
N_FRAMES = 32_000

ALL_SURFACES = parse_surfaces("all")

# Independent random streams drawn from one seed.
_STREAM_ORDER = 1
_STREAM_ARRIVALS = 2
_STREAM_SUBSAMPLE = 3


def rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one named stream of *seed*."""
    return np.random.default_rng((seed, stream))


@dataclass
class GatewayInputs:
    """What one gateway workload sends, in pool order.

    Attributes:
        framed: True when wires are ``REPRO-FRAME/2`` frames (served with
            ``--surfaces all``), False for legacy payload lines.
        surfaces: the surface selection the server applies.
        requests: the generated requests.
        wires: each request's pre-encoded bytes.
        attack: ground-truth label per request.
    """

    framed: bool
    surfaces: tuple
    requests: list[HttpRequest]
    wires: list[bytes]
    attack: list[bool]

    def units(self, index: int) -> list[str]:
        """The scoring-unit values the server inspects for one request."""
        request = self.requests[index]
        if not self.framed:
            return [request.flat_payload()]
        return [unit.value for unit in scoring_units(request, self.surfaces)]


def test_datasets(seed: int) -> TestDatasets:
    """The paper's three Section III-B test traces for *seed*, at the
    program's default size (50k benign-week requests)."""
    return build_test_datasets(seed=seed)


def line_mix(seed: int) -> GatewayInputs:
    """Benign week, SQLmap and Arachni+Vega, interleaved in seeded order."""
    datasets = test_datasets(seed)
    pool = (
        datasets.benign.requests
        + datasets.sqlmap.requests
        + datasets.arachni.requests
    )
    order = rng(seed, _STREAM_ORDER).permutation(len(pool))
    requests = [pool[i] for i in order]
    wires = []
    for request in requests:
        payload = request.flat_payload()
        if "\n" in payload or "\r" in payload:
            raise ValueError(f"payload is not line-safe: {payload!r}")
        wires.append(payload.encode("utf-8") + b"\n")
    return GatewayInputs(
        framed=False,
        surfaces=LEGACY_SURFACES,
        requests=requests,
        wires=wires,
        attack=[r.label == LABEL_ATTACK for r in requests],
    )


def framed_surfaces(seed: int) -> GatewayInputs:
    """``SurfaceCorpusGenerator.mixed_trace`` requests as v2 frames."""
    trace = SurfaceCorpusGenerator(seed=seed).mixed_trace(N_FRAMES)
    requests = list(trace.requests)
    return GatewayInputs(
        framed=True,
        surfaces=ALL_SURFACES,
        requests=requests,
        wires=[encode_framed_request(r) for r in requests],
        attack=[r.label == LABEL_ATTACK for r in requests],
    )


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Send offsets (s) of a Poisson arrival process over *seconds*."""
    generator = rng(seed, _STREAM_ARRIVALS)
    expected = int(rate * seconds * 1.5) + 64
    gaps = generator.exponential(1.0 / rate, size=expected)
    offsets = np.cumsum(gaps)
    while offsets[-1] < seconds:
        more = generator.exponential(1.0 / rate, size=expected)
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(more)])
    return offsets[offsets < seconds]


def subsample(seed: int, population: int, size: int) -> np.ndarray:
    """A fixed seeded subsample of ``range(population)``, sorted."""
    size = min(size, population)
    picked = rng(seed, _STREAM_SUBSAMPLE).choice(
        population, size=size, replace=False
    )
    return np.sort(picked)


def digest(chunks) -> str:
    """SHA-256 of a sequence of byte strings (input reproducibility)."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(len(chunk).to_bytes(8, "little"))
        hasher.update(chunk)
    return hasher.hexdigest()


def census(
    wires: list[bytes], units: list[list[str]], attack: list[bool]
) -> dict:
    """Properties of the requests a run actually sends or scores.

    *wires*, *units* and *attack* are index-aligned per request.  A later
    cache or fast-path claim can cite these shares; a request repeats
    when an earlier request of the run had the same bytes.
    """
    seen: set[bytes] = set()
    repeated = []
    for wire in wires:
        repeated.append(wire in seen)
        seen.add(wire)

    def share(flags) -> float:
        flags = list(flags)
        return sum(flags) / len(flags) if flags else 0.0

    sizes = [len(w) for w in wires]
    flat_units = [value for request_units in units for value in request_units]
    return {
        "requests": len(wires),
        "attack_share": share(attack),
        "repeat_share": share(repeated),
        "repeat_share_benign": share(r for r, a in zip(repeated, attack) if not a),
        "repeat_share_attack": share(r for r, a in zip(repeated, attack) if a),
        "non_ascii_unit_share": share(not value.isascii() for value in flat_units),
        "mean_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
        "max_bytes": max(sizes, default=0),
        "units_per_request": len(flat_units) / len(wires) if wires else 0.0,
        "sha256": digest(wires)[:16],
    }
