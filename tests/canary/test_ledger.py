"""Corpus ledger tests: versioning, dedup, hashes, persistence."""

import json

import pytest

from repro.canary.ledger import (
    CorpusLedger,
    LedgerError,
    batch_digest,
    payload_digest,
)


class TestIngest:
    def test_versions_are_monotonic(self):
        ledger = CorpusLedger()
        a = ledger.ingest(["id=1"], kind="attack", source="t")
        b = ledger.ingest(["q=x"], kind="benign", source="t")
        assert (a.version, b.version) == (1, 2)
        assert ledger.version == 2

    def test_dedup_within_and_across_batches(self):
        ledger = CorpusLedger()
        first = ledger.ingest(
            ["id=1", "id=1", "id=2"], kind="attack", source="t"
        )
        assert (first.offered, first.added, first.duplicates) == (3, 2, 1)
        second = ledger.ingest(
            ["id=2", "id=3"], kind="attack", source="t"
        )
        assert (second.added, second.duplicates) == (1, 1)
        assert ledger.pending("attack") == ["id=1", "id=2", "id=3"]

    def test_kinds_deduplicate_independently(self):
        ledger = CorpusLedger()
        ledger.ingest(["x=1"], kind="attack", source="t")
        batch = ledger.ingest(["x=1"], kind="benign", source="t")
        assert batch.added == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(LedgerError, match="unknown ledger kind"):
            CorpusLedger().ingest(["p"], kind="mystery", source="t")

    def test_empty_batch_rejected(self):
        with pytest.raises(LedgerError, match="empty"):
            CorpusLedger().ingest([], kind="attack", source="t")

    def test_content_hash_is_order_independent(self):
        forward = CorpusLedger().ingest(
            ["a=1", "b=2"], kind="attack", source="t"
        )
        backward = CorpusLedger().ingest(
            ["b=2", "a=1"], kind="attack", source="t"
        )
        assert forward.content_hash == backward.content_hash
        assert forward.content_hash == batch_digest(
            [payload_digest("a=1"), payload_digest("b=2")]
        )


class TestConsumption:
    def test_mark_consumed_clears_pending(self):
        ledger = CorpusLedger()
        ledger.ingest(["id=1"], kind="attack", source="t")
        ledger.ingest(["q=x"], kind="benign", source="t")
        counts = ledger.mark_consumed()
        assert counts == {"attack": 1, "benign": 1}
        assert ledger.pending_counts() == {"attack": 0, "benign": 0}
        assert ledger.consumed_counts == {"attack": 1, "benign": 1}

    def test_pending_accumulates_until_consumed(self):
        ledger = CorpusLedger()
        ledger.ingest(["id=1"], kind="attack", source="t")
        ledger.ingest(["id=2"], kind="attack", source="t")
        assert ledger.pending("attack") == ["id=1", "id=2"]

    def test_pending_returns_a_copy(self):
        ledger = CorpusLedger()
        ledger.ingest(["id=1"], kind="attack", source="t")
        ledger.pending("attack").append("tampered")
        assert ledger.pending("attack") == ["id=1"]


class TestPersistence:
    def test_journal_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CorpusLedger(path=path)
        ledger.ingest(["id=1", "id=2"], kind="attack", source="t")
        ledger.ingest(["q=x"], kind="benign", source="t")
        loaded = CorpusLedger.load(path)
        assert loaded.version == 2
        assert loaded.pending("attack") == ["id=1", "id=2"]
        assert loaded.pending("benign") == ["q=x"]
        assert [b.content_hash for b in loaded.batches] == [
            b.content_hash for b in ledger.batches
        ]

    def test_load_replays_consumption(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CorpusLedger(path=path)
        ledger.ingest(["id=1"], kind="attack", source="t")
        ledger.mark_consumed()
        ledger.ingest(["id=9"], kind="attack", source="t")
        loaded = CorpusLedger.load(path)
        # Promoted-consumed samples must not resurrect as pending.
        assert loaded.pending("attack") == ["id=9"]
        assert loaded.consumed_counts["attack"] == 1

    def test_load_detects_tampering(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CorpusLedger(path=path)
        ledger.ingest(["id=1"], kind="attack", source="t")
        lines = open(path).read().splitlines()
        record = json.loads(lines[0])
        record["payloads"] = ["id=1 union select 1"]
        with open(path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(LedgerError, match="content hash mismatch"):
            CorpusLedger.load(path)

    def test_load_detects_version_gap(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CorpusLedger(path=path)
        ledger.ingest(["id=1"], kind="attack", source="t")
        ledger.ingest(["id=2"], kind="attack", source="t")
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write(lines[1] + "\n")
        with pytest.raises(LedgerError, match="out of order"):
            CorpusLedger.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json\n")
        with pytest.raises(LedgerError, match="invalid JSON"):
            CorpusLedger.load(str(path))

    @pytest.mark.parametrize(
        "record",
        [
            [1, 2],
            "batch",
            7,
            {"event": "consume", "counts": ["attack"]},
            {"event": "consume", "counts": {"attack": "many"}},
            {"kind": "attack", "payloads": [1], "content_hash": "x"},
            # A well-hashed batch that lacks its version and counts.
            {
                "kind": "attack", "payloads": ["id=1"],
                "content_hash": batch_digest([payload_digest("id=1")]),
            },
        ],
        ids=[
            "list", "string", "number", "consume-counts-list",
            "consume-count-text", "payload-not-text", "missing-fields",
        ],
    )
    def test_load_rejects_a_malformed_record(self, tmp_path, record):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(LedgerError, match=":1: malformed ledger record"):
            CorpusLedger.load(str(path))


class TestTornAppend:
    """A crash mid-append cuts the journal's last line short."""

    @staticmethod
    def _journal(tmp_path, batches):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CorpusLedger(path=path)
        for payloads in batches:
            ledger.ingest(payloads, kind="attack", source="t")
        return path, ledger

    def test_torn_final_record_is_dropped_and_mended(self, tmp_path):
        path, ledger = self._journal(
            tmp_path, [["id=1"], ["id=2", "id=3"], ["id=4"]]
        )
        data = open(path, "rb").read()
        third = data.rindex(b"\n", 0, len(data) - 1) + 1
        cut = third + (len(data) - third) // 2
        with open(path, "r+b") as handle:
            handle.truncate(cut)  # half of the third record, no newline

        loaded = CorpusLedger.load(path)
        assert loaded.version == 2
        assert loaded.pending("attack") == ["id=1", "id=2", "id=3"]

        batch = loaded.ingest(["id=4"], kind="attack", source="t")
        assert batch.version == 3
        assert open(path, "rb").read() == data  # the torn tail is gone
        reloaded = CorpusLedger.load(path)
        assert [b.content_hash for b in reloaded.batches] == [
            b.content_hash for b in ledger.batches
        ]
        assert reloaded.pending("attack") == ["id=1", "id=2", "id=3", "id=4"]

    def test_consume_after_a_torn_record_mends_it(self, tmp_path):
        path, _ = self._journal(tmp_path, [["id=1"], ["id=2"]])
        with open(path, "a") as handle:
            handle.write('{"version": 3, "kind": "att')
        loaded = CorpusLedger.load(path)
        assert loaded.mark_consumed() == {"attack": 2, "benign": 0}
        reloaded = CorpusLedger.load(path)
        assert reloaded.version == 2
        assert reloaded.consumed_counts["attack"] == 2
        assert reloaded.pending("attack") == []

    def test_unterminated_complete_record_is_kept(self, tmp_path):
        path, _ = self._journal(tmp_path, [["id=1"], ["id=2"]])
        data = open(path, "rb").read()
        with open(path, "r+b") as handle:
            handle.truncate(len(data) - 1)  # only the newline was lost
        loaded = CorpusLedger.load(path)
        assert loaded.version == 2
        loaded.ingest(["id=3"], kind="attack", source="t")
        assert CorpusLedger.load(path).pending("attack") == [
            "id=1", "id=2", "id=3"
        ]

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path, _ = self._journal(tmp_path, [["id=1"], ["id=2"]])
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write(lines[0][: len(lines[0]) // 2] + "\n")
            handle.write(lines[1] + "\n")
        with pytest.raises(LedgerError, match=":1: invalid JSON"):
            CorpusLedger.load(path)

    def test_malformed_terminated_final_line_still_raises(self, tmp_path):
        path, _ = self._journal(tmp_path, [["id=1"]])
        with open(path, "a") as handle:
            handle.write('{"version": 2, "kind": "att\n')
        with pytest.raises(LedgerError, match=":2: invalid JSON"):
            CorpusLedger.load(path)
