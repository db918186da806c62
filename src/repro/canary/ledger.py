"""Versioned corpus ledger: the canary loop's ingestion stage.

Every retraining decision the loop makes is only as trustworthy as its
record of *what* it trained on.  The ledger is that record: each ingest
call becomes an immutable batch with a content hash (SHA-256 over the
sorted payload digests, so batch identity is order-independent), a
monotonically increasing ledger version, and added/duplicate counts —
the same artifact-discipline a model-serving stack keeps for training
data snapshots.

Payloads are deduplicated per kind across the ledger's whole lifetime:
a scanner replaying the same probe every round grows the pending set
once, not every round.  Pending samples accumulate across *rejected*
rounds (the next candidate trains on everything observed since the last
promotion) and are consumed on promotion.

With a ``path`` the ledger also appends each batch as a JSON line, so a
restarted process can :meth:`CorpusLedger.load` the exact corpus state
back — content hashes included, which makes tampering visible.  A crash
mid-append leaves a final line that is cut short: no trailing newline,
not valid JSON.  :meth:`CorpusLedger.load` drops that one record and
keeps every batch before it, and the ledger's next append cuts the torn
tail off first, so the journal never carries a corrupt line in its
middle.  Any other malformed line still fails the load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterable

__all__ = ["CorpusLedger", "IngestBatch", "LedgerError"]

#: Kinds a ledger tracks; attacks feed refresh, benign feeds the FPR gate.
KINDS = ("attack", "benign")


class LedgerError(ValueError):
    """Raised on invalid ingests or a corrupt persisted ledger."""


def payload_digest(payload: str) -> str:
    """Stable content hash of one payload (SHA-256 hex)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def batch_digest(digests: Iterable[str]) -> str:
    """Order-independent content hash of a batch of payload digests."""
    joined = "\n".join(sorted(digests)).encode("ascii")
    return hashlib.sha256(joined).hexdigest()


@dataclass(frozen=True)
class IngestBatch:
    """One immutable ingestion record.

    Attributes:
        version: ledger version this batch produced (1-based, monotonic).
        kind: ``attack`` or ``benign``.
        source: provenance string (``corpus:union-extract``,
            ``scanner:sqlmap``, ``operator``, ...).
        offered: payloads offered to this ingest call.
        added: payloads new to the ledger (survive dedup).
        duplicates: payloads already known (dropped).
        content_hash: order-independent SHA-256 over the *added*
            payload digests — the batch's identity.
    """

    version: int
    kind: str
    source: str
    offered: int
    added: int
    duplicates: int
    content_hash: str

    def to_dict(self) -> dict:
        """JSON-ready form (one history/journal line)."""
        return {
            "version": self.version,
            "kind": self.kind,
            "source": self.source,
            "offered": self.offered,
            "added": self.added,
            "duplicates": self.duplicates,
            "content_hash": self.content_hash,
        }


class CorpusLedger:
    """Content-addressed, versioned store of observed traffic.

    Args:
        path: optional JSONL journal; every batch (with its payloads) is
            appended so :meth:`load` can reconstruct the ledger.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.version = 0
        self.batches: list[IngestBatch] = []
        self._seen: dict[str, set[str]] = {kind: set() for kind in KINDS}
        self._pending: dict[str, list[str]] = {kind: [] for kind in KINDS}
        self._consumed: dict[str, int] = {kind: 0 for kind in KINDS}
        #: What :meth:`load` found at the journal's end, for the next
        #: append to mend first: the byte offset to truncate to and the
        #: text to write there (a newline the last record lacks).
        self._repair: tuple[int, str] | None = None

    # -- ingestion -----------------------------------------------------

    def ingest(
        self, payloads: Iterable[str], *, kind: str, source: str
    ) -> IngestBatch:
        """Fold *payloads* into the ledger as one versioned batch.

        Raises:
            LedgerError: unknown ``kind`` or an empty offered batch
                (an empty ingest would mint a version that recorded
                nothing — almost certainly a caller bug).
        """
        if kind not in KINDS:
            raise LedgerError(
                f"unknown ledger kind {kind!r}; expected one of {KINDS}"
            )
        offered = list(payloads)
        if not offered:
            raise LedgerError(
                f"refusing to ingest an empty {kind} batch from {source!r}"
            )
        seen = self._seen[kind]
        added: list[str] = []
        added_digests: list[str] = []
        for payload in offered:
            digest = payload_digest(payload)
            if digest in seen:
                continue
            seen.add(digest)
            added.append(payload)
            added_digests.append(digest)
        self.version += 1
        batch = IngestBatch(
            version=self.version,
            kind=kind,
            source=source,
            offered=len(offered),
            added=len(added),
            duplicates=len(offered) - len(added),
            content_hash=batch_digest(added_digests),
        )
        self.batches.append(batch)
        self._pending[kind].extend(added)
        if self.path is not None:
            self._append({**batch.to_dict(), "payloads": added})
        return batch

    def _append(self, record: dict) -> None:
        """Append one journal line, first mending a torn tail."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        lead = ""
        with open(self.path, "a") as handle:
            if self._repair is not None:
                offset, lead = self._repair
                handle.truncate(offset)
                self._repair = None
            handle.write(lead + json.dumps(record) + "\n")

    # -- consumption ---------------------------------------------------

    def pending(self, kind: str) -> list[str]:
        """Samples ingested since the last promotion (a copy)."""
        if kind not in KINDS:
            raise LedgerError(f"unknown ledger kind {kind!r}")
        return list(self._pending[kind])

    def pending_counts(self) -> dict[str, int]:
        """Pending sample count per kind."""
        return {kind: len(queue) for kind, queue in self._pending.items()}

    def mark_consumed(self) -> dict[str, int]:
        """Clear every pending queue (called on promotion).

        Returns the per-kind counts that were consumed.  Rejected rounds
        do *not* consume: their samples stay pending so the next
        candidate trains on everything observed since the last promote.
        """
        counts = self.pending_counts()
        for kind in KINDS:
            self._consumed[kind] += len(self._pending[kind])
            self._pending[kind] = []
        if self.path is not None and any(counts.values()):
            self._append({"event": "consume", "counts": counts})
        return counts

    @property
    def consumed_counts(self) -> dict[str, int]:
        """Total samples consumed by promotions, per kind."""
        return dict(self._consumed)

    # -- persistence ---------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "CorpusLedger":
        """Reconstruct a ledger from its JSONL journal.

        A final line with no trailing newline that does not parse is a
        torn append: it is dropped, and the loaded ledger's next append
        truncates the journal back to where that line starts.  (One that
        does parse is kept, and the next append ends it with a newline.)

        Raises:
            LedgerError: malformed journal lines or a recorded batch
                whose content hash does not match its payloads.
        """
        ledger = cls(path=None)
        with open(path, "rb") as handle:
            data = handle.read()
        start = 0
        for number, raw in enumerate(data.split(b"\n"), start=1):
            line_start, start = start, start + len(raw) + 1
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # bad JSON or bad UTF-8
                if start > len(data):  # the last line, no newline
                    ledger._repair = (line_start, "")
                    break
                raise LedgerError(
                    f"{path}:{number}: invalid JSON: {exc}"
                ) from exc
            malformed = f"{path}:{number}: malformed ledger record"
            if not isinstance(record, dict):
                raise LedgerError(malformed)
            if record.get("event") == "consume":
                counts = record.get("counts", {})
                if not isinstance(counts, dict):
                    raise LedgerError(malformed)
                for kind, count in counts.items():
                    if kind in KINDS:
                        try:
                            ledger._consumed[kind] += int(count)
                        except (TypeError, ValueError) as exc:
                            raise LedgerError(malformed) from exc
                        ledger._pending[kind] = []
                continue
            payloads = record.get("payloads")
            kind = record.get("kind")
            if (
                kind not in KINDS
                or not isinstance(payloads, list)
                or not all(isinstance(p, str) for p in payloads)
            ):
                raise LedgerError(malformed)
            digests = [payload_digest(p) for p in payloads]
            if batch_digest(digests) != record.get("content_hash"):
                raise LedgerError(
                    f"{path}:{number}: content hash mismatch — the "
                    "journal does not match its recorded payloads"
                )
            ledger.version += 1
            try:
                batch = IngestBatch(
                    version=int(record["version"]),
                    kind=kind,
                    source=str(record.get("source", "")),
                    offered=int(record["offered"]),
                    added=int(record["added"]),
                    duplicates=int(record["duplicates"]),
                    content_hash=str(record["content_hash"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerError(malformed) from exc
            if batch.version != ledger.version:
                raise LedgerError(
                    f"{path}:{number}: version {batch.version} out of "
                    f"order (expected {ledger.version})"
                )
            ledger.batches.append(batch)
            ledger._seen[kind].update(digests)
            ledger._pending[kind].extend(payloads)
        if ledger._repair is None and data and not data.endswith(b"\n"):
            ledger._repair = (len(data), "\n")
        ledger.path = path
        return ledger
