"""Feature system: catalog from three sources, extraction, and pruning."""

from repro._lazy import lazy_exports
from repro.features.definitions import (
    SOURCE_REFERENCE,
    SOURCE_RESERVED,
    SOURCE_SIGNATURE,
    SOURCES,
    FeatureCatalog,
    FeatureDefinition,
    build_catalog,
)

__all__ = [
    "FeatureDefinition",
    "FeatureCatalog",
    "build_catalog",
    "FeatureExtractor",
    "FeatureMatrix",
    "prune",
    "PruningReport",
    "SOURCES",
    "SOURCE_RESERVED",
    "SOURCE_SIGNATURE",
    "SOURCE_REFERENCE",
]

# Extraction and pruning work on numpy matrices and load on first use;
# scoring needs only the catalog.
__getattr__ = lazy_exports(__name__, {
    "extractor": ("FeatureExtractor",),
    "matrix": ("FeatureMatrix",),
    "pruning": ("PruningReport", "prune"),
})
