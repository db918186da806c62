"""Golden-corpus snapshots: verdicts pinned across PRs.

The oracle answers "do all paths agree *today*"; the golden corpus
answers "do they still say what they said when this file was recorded".
A snapshot is a JSONL file — one meta header line, then one record per
payload with the baseline verdict — checked into ``conformance/golden/``
so a verdict regression (a signature that stops firing, a score that
drifts past tolerance) fails ``repro conform diff`` even when every
path still agrees with every other path.

JSONL because diffs stay line-per-payload in review, and because a
snapshot can be streamed without loading the whole corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.conformance.verdict import Divergence, Verdict, diff_verdicts

__all__ = [
    "GOLDEN_SCHEMA",
    "GoldenCorpus",
    "GoldenError",
    "diff_golden",
    "read_golden",
    "write_golden",
]

GOLDEN_SCHEMA = 1

#: Score drift allowed against a recorded snapshot.  Wider than the
#: in-process tolerance: the snapshot crossed a JSON round-trip and may
#: be replayed on a different BLAS/libm build.
GOLDEN_SCORE_TOLERANCE = 1e-6


class GoldenError(ValueError):
    """A snapshot file that cannot be parsed or fails its schema."""


@dataclass
class GoldenCorpus:
    """One parsed snapshot.

    Attributes:
        meta: the header record (schema, detector, seed, budget, n).
        payloads: recorded payloads, in file order.
        verdicts: recorded baseline verdicts, aligned with payloads.
        ids: per-record ids (``g-00000``...), aligned with payloads.
    """

    meta: dict[str, Any]
    payloads: list[str] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.payloads)


def write_golden(
    path: str,
    payloads: list[str],
    verdicts: list[Verdict],
    *,
    detector: str,
    seed: int,
    budget: str,
    extra: dict[str, Any] | None = None,
) -> None:
    """Record a snapshot: one meta line, then one record per payload."""
    if len(payloads) != len(verdicts):
        raise ValueError(
            f"{len(payloads)} payloads for {len(verdicts)} verdicts"
        )
    meta = {
        "schema": GOLDEN_SCHEMA,
        "kind": "repro-conformance-golden",
        "detector": detector,
        "seed": seed,
        "budget": budget,
        "n": len(payloads),
        **(extra or {}),
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for index, (payload, verdict) in enumerate(
            zip(payloads, verdicts)
        ):
            record = {
                "id": f"g-{index:05d}",
                "payload": payload,
                **verdict.to_dict(),
            }
            handle.write(
                json.dumps(record, sort_keys=True, ensure_ascii=False)
                + "\n"
            )


def read_golden(path: str) -> GoldenCorpus:
    """Parse a snapshot file.

    Raises:
        GoldenError: missing/invalid header, malformed record lines, or
            a record count that contradicts the header.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise GoldenError(f"{path}: empty snapshot")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise GoldenError(f"{path}:1: bad meta line: {exc}") from exc
    if (
        not isinstance(meta, dict)
        or meta.get("kind") != "repro-conformance-golden"
    ):
        raise GoldenError(f"{path}:1: not a conformance golden header")
    if meta.get("schema") != GOLDEN_SCHEMA:
        raise GoldenError(
            f"{path}: schema {meta.get('schema')!r} != {GOLDEN_SCHEMA}"
        )
    corpus = GoldenCorpus(meta=meta)
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GoldenError(f"{path}:{number}: bad record: {exc}") from exc
        try:
            corpus.ids.append(str(record["id"]))
            corpus.payloads.append(record["payload"])
            score = record["score"]
            corpus.verdicts.append(Verdict(
                alert=bool(record["alert"]),
                score=None if score is None else float(score),
                fired=tuple(int(s) for s in record["fired"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise GoldenError(
                f"{path}:{number}: incomplete record: {exc}"
            ) from exc
    declared = meta.get("n")
    if declared is not None and declared != len(corpus):
        raise GoldenError(
            f"{path}: header declares {declared} records, "
            f"found {len(corpus)}"
        )
    return corpus


def diff_golden(
    golden: GoldenCorpus,
    verdicts: list[Verdict],
    *,
    score_tolerance: float = GOLDEN_SCORE_TOLERANCE,
    path_name: str = "current",
) -> list[Divergence]:
    """Diff freshly computed verdicts against a recorded snapshot."""
    return diff_verdicts(
        "golden", golden.verdicts, path_name, verdicts,
        golden.payloads, score_tolerance=score_tolerance,
    )
