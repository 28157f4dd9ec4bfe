"""Tests for the run journal: vocabulary, persistence, torn tails."""

import json
import sys
import threading

import pytest

from repro.obs.journal import (
    EVENT_TYPES,
    FAULT_TIMELINE_TYPES,
    NULL_JOURNAL,
    RunJournal,
    journal_path,
    read_journal,
)


class TestVocabulary:
    def test_unknown_event_type_raises(self):
        journal = RunJournal()
        with pytest.raises(ValueError, match="unknown journal event type"):
            journal.emit("task_exploded", pair=3)
        assert journal.records == []

    def test_every_vocabulary_type_is_emittable(self):
        journal = RunJournal()
        for event_type in sorted(EVENT_TYPES):
            journal.emit(event_type)
        assert len(journal.records) == len(EVENT_TYPES)

    def test_fault_timeline_is_a_subset_of_the_vocabulary(self):
        assert FAULT_TIMELINE_TYPES <= EVENT_TYPES

    def test_records_carry_seq_t_type_and_fields(self):
        journal = RunJournal()
        record = journal.emit("retry", pair=2, attempt=1, backoff_s=0.05)
        assert record["seq"] == 1
        assert record["type"] == "retry"
        assert record["pair"] == 2 and record["backoff_s"] == 0.05
        assert isinstance(record["t"], float) and record["t"] >= 0

    def test_seq_is_monotonic(self):
        journal = RunJournal()
        seqs = [journal.emit("sample", queued=i)["seq"] for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]


class TestPersistence:
    def test_writes_jsonl_and_reads_back(self, tmp_path):
        path = journal_path(tmp_path)
        with RunJournal(path) as journal:
            journal.emit("run_started", backend="process", workers=2)
            journal.emit("task_dispatched", pair=0, attempt=0)
        records = read_journal(path)
        assert [r["type"] for r in records] == ["run_started", "task_dispatched"]
        assert records[0]["backend"] == "process"

    def test_each_line_is_flushed_immediately(self, tmp_path):
        # A crashed coordinator must leave everything emitted so far on
        # disk — the journal may be the only evidence of what happened.
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.emit("run_started", backend="process", workers=1)
        on_disk = read_journal(path)  # journal deliberately NOT closed
        assert len(on_disk) == 1
        journal.close()

    def test_torn_tail_keeps_intact_prefix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.emit("run_started", backend="process", workers=1)
            journal.emit("task_dispatched", pair=0, attempt=0)
        with path.open("a") as fh:
            fh.write('{"seq": 3, "t": 0.5, "type": "task_fin')  # torn write
        records = read_journal(path)
        assert [r["type"] for r in records] == ["run_started", "task_dispatched"]

    def test_a_file_backed_journal_keeps_no_second_copy(self, tmp_path):
        # The serve tier's journal lives as long as the server: what is on
        # disk must not also pile up in memory.
        path = journal_path(tmp_path)
        with RunJournal(path) as journal:
            for i in range(50):
                journal.emit("sample", queued=i)
            assert journal.records == []
        assert [r["queued"] for r in read_journal(path)] == list(range(50))

    def test_many_threads_share_one_journal(self, tmp_path):
        # emit() holds the journal's own mutex: no torn or interleaved
        # line, no seq handed out twice — with far more threads than cores
        # and the interpreter switching between them as often as it can.
        path = journal_path(tmp_path)
        journal = RunJournal(path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [journal.emit("sample") for _ in range(200)]
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            journal.close()
        assert len(path.read_text().splitlines()) == 1600
        assert sorted(r["seq"] for r in read_journal(path)) == list(range(1, 1601))

    def test_memory_only_journal_keeps_records(self):
        journal = RunJournal()
        journal.emit("run_started", backend="simulated", workers=4)
        assert journal.path is None
        assert journal.records[0]["backend"] == "simulated"

    def test_on_event_observer_sees_every_record(self, tmp_path):
        seen = []
        journal = RunJournal(on_event=seen.append)
        journal.emit("task_started", pair=1, attempt=0)
        journal.emit("task_finished", pair=1, attempt=0, results=9)
        assert [r["type"] for r in seen] == ["task_started", "task_finished"]
        assert seen[1]["results"] == 9


class TestNullJournal:
    def test_disabled_and_free(self):
        assert NULL_JOURNAL.enabled is False
        assert NULL_JOURNAL.emit("run_started", backend="x") == {}
        assert NULL_JOURNAL.records == []
        NULL_JOURNAL.close()  # must be harmless

    def test_null_journal_accepts_any_type(self):
        # The disabled path must cost nothing — not even validation.
        assert NULL_JOURNAL.emit("not_in_the_vocabulary") == {}

    def test_sorted_keys_on_disk(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.emit("retry", pair=1, attempt=0, backoff_s=0.1, cause="X")
        line = path.read_text().strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)
