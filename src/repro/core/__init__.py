"""pSigene core: the four-phase pipeline and its signature artifacts."""

from repro._lazy import lazy_exports
from repro.core.serialize import (
    signature_set_from_json,
    signature_set_to_json,
)
from repro.core.signature import GeneralizedSignature, SignatureSet

__all__ = [
    "GeneralizedSignature",
    "SignatureSet",
    "GeneralizerConfig",
    "SignatureGeneralizer",
    "SignatureTraining",
    "PipelineConfig",
    "PipelineResult",
    "PSigenePipeline",
    "incremental_update",
    "IncrementalUpdate",
    "signature_set_to_json",
    "signature_set_from_json",
]

# Training code (crawler, clusterer, corpus) loads on first use only.
__getattr__ = lazy_exports(__name__, {
    "generalizer": (
        "GeneralizerConfig", "SignatureGeneralizer", "SignatureTraining",
    ),
    "incremental": ("IncrementalUpdate", "incremental_update"),
    "pipeline": ("PipelineConfig", "PipelineResult", "PSigenePipeline"),
})
