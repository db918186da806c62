"""Signature-set serialization.

A signature set is the deployable artifact — what an operator ships to
their IDS.  The JSON schema stores, per signature, the bicluster number,
threshold, Θ (intercept + coefficients), and the feature patterns/labels,
which is everything :class:`~repro.core.signature.GeneralizedSignature`
needs to evaluate payloads.
"""

from __future__ import annotations

import json

from repro.core.signature import GeneralizedSignature, SignatureSet
from repro.features.definitions import FeatureCatalog, FeatureDefinition
from repro.learn.logistic import LogisticModel

SCHEMA_VERSION = 1


def signature_set_to_json(signature_set: SignatureSet) -> str:
    """Serialize a signature set to a JSON string."""
    payload = {
        "schema": SCHEMA_VERSION,
        "signatures": [
            {
                "bicluster": s.bicluster_index,
                "threshold": s.threshold,
                "theta": [float(v) for v in s.model.theta],
                "training_samples": s.training_samples,
                "bicluster_feature_count": s.bicluster_feature_count,
                "features": [
                    {
                        "pattern": d.pattern,
                        "label": d.label,
                        "source": d.source,
                    }
                    for d in s.features
                ],
            }
            for s in signature_set
        ],
    }
    return json.dumps(payload, indent=2)


def signature_set_from_json(text: str) -> SignatureSet:
    """Rebuild a signature set from :func:`signature_set_to_json` output.

    Raises:
        ValueError: on schema mismatch or malformed content.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"top level is a JSON {type(payload).__name__}, not an object"
        )
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {payload.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    try:
        return SignatureSet(
            [_signature(entry) for entry in payload.get("signatures", [])]
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(
            f"malformed signature entry ({type(exc).__name__}: {exc})"
        ) from exc


def _signature(entry: dict) -> GeneralizedSignature:
    definitions = [
        FeatureDefinition(
            index=i, pattern=f["pattern"], label=f["label"], source=f["source"]
        )
        for i, f in enumerate(entry["features"])
    ]
    raw_theta = entry["theta"]
    if not isinstance(raw_theta, list):
        raise TypeError(
            f"theta is a JSON {type(raw_theta).__name__}, not an array"
        )
    theta = [float(value) for value in raw_theta]
    if len(theta) != len(definitions) + 1:
        raise ValueError(
            f"bicluster {entry.get('bicluster')}: theta length "
            f"{len(theta)} does not match {len(definitions)} features"
        )
    return GeneralizedSignature(
        bicluster_index=int(entry["bicluster"]),
        features=FeatureCatalog(definitions),
        model=LogisticModel(theta),
        threshold=float(entry["threshold"]),
        bicluster_feature_count=int(entry.get("bicluster_feature_count", 0)),
        training_samples=int(entry.get("training_samples", 0)),
    )
