"""Multi-surface injection detection.

The paper's unit of detection is the flattened query-string-plus-form-body
payload (Section II-A); real SQL injection also arrives through JSON/REST
bodies, multipart forms, cookies, request headers, and second-order
(stored-then-replayed) channels.  This package names those channels
(:class:`InjectionSurface`), extracts detector-visible values from each
one with locator provenance (:func:`extract_surfaces`), and scores whole
requests surface by surface (:func:`score_request`), folding per-surface
verdicts into one alert with surface attribution.

DESIGN.md §17 documents the surface model, the wire-format v2 framing
that carries full requests to the gateway, and the adversarial evasion
search built on top of it.
"""

from repro._lazy import lazy_exports
from repro.surfaces.extractors import (
    INSPECTED_HEADER_SKIP,
    extract_surfaces,
    legacy_flatten,
    scoring_units,
)
from repro.surfaces.model import (
    DEFAULT_SURFACES,
    LEGACY_SURFACES,
    InjectionSurface,
    SurfaceValue,
    format_surfaces,
    parse_surfaces,
)
from repro.surfaces.score import (
    ScoreRequest,
    SurfaceDetection,
    SurfaceVerdict,
    score_request,
)

__all__ = [
    "DEFAULT_SURFACES",
    "EvasionOutcome",
    "EvasionReport",
    "EvasionSearch",
    "INSPECTED_HEADER_SKIP",
    "InjectionSurface",
    "LEGACY_SURFACES",
    "ScoreRequest",
    "SurfaceDetection",
    "SurfaceValue",
    "SurfaceVerdict",
    "evasion_bases",
    "extract_surfaces",
    "format_surfaces",
    "legacy_flatten",
    "parse_surfaces",
    "score_request",
    "scoring_units",
]

# The evasion search loads the attack grammar: first use only.
__getattr__ = lazy_exports(__name__, {
    "evasion": (
        "EvasionOutcome", "EvasionReport", "EvasionSearch", "evasion_bases",
    ),
})
