"""Unit tests for FileStorage group commit (journalled write barriers).

The classic per-record path (temp + fsync + rename) keeps its coverage
in test_storage.py and test_storage_crash_atomicity.py; here we pin the
group-commit mode: one journal fsync per barrier, read-your-writes
inside the barrier, replay after a crash, and the anti-resurrection
discipline for deletes.
"""

from __future__ import annotations

import os

import pytest

from repro.storage import codec
from repro.storage.file import (FileStorage, _JOURNAL_NAME, frame_record)


@pytest.fixture
def storage(tmp_path):
    return FileStorage(str(tmp_path), group_commit=True)


def fsync_counter(monkeypatch):
    real_fsync = os.fsync
    calls = {"n": 0}

    def counting_fsync(fd):
        calls["n"] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


class TestBatching:
    def test_one_fsync_per_barrier(self, storage, monkeypatch):
        calls = fsync_counter(monkeypatch)
        with storage.write_barrier():
            for index in range(10):
                storage.log(("batch", index), {"v": index})
        assert calls["n"] == 1
        assert storage.group_commits == 1
        assert storage.group_commit_records == 10
        for index in range(10):
            assert storage.retrieve(("batch", index)) == {"v": index}

    def test_classic_mode_fsyncs_per_record(self, tmp_path, monkeypatch):
        classic = FileStorage(str(tmp_path), group_commit=False)
        calls = fsync_counter(monkeypatch)
        with classic.write_barrier():
            for index in range(10):
                classic.log(("batch", index), {"v": index})
        assert calls["n"] >= 10
        assert classic.group_commits == 0
        assert not os.path.exists(str(tmp_path / _JOURNAL_NAME))

    def test_each_value_encoded_once_per_commit(self, storage,
                                                monkeypatch):
        """The journal record and the per-key file share one encoding
        of the value; only the small journal envelope is encoded
        separately, around the value's bytes."""
        values = [{"probe": index, "body": "x" * 40} for index in range(4)]
        encoded = []
        real_encode = codec.encode

        def spy(value):
            encoded.append(value)
            return real_encode(value)

        def mentions(item, value):
            if isinstance(item, (list, tuple)):
                return any(mentions(part, value) for part in item)
            return item == value

        monkeypatch.setattr(codec, "encode", spy)
        with storage.write_barrier():
            for index, value in enumerate(values):
                storage.log(("probe", index), value)
        for value in values:
            assert sum(mentions(item, value) for item in encoded) == 1
        monkeypatch.undo()
        reopened = FileStorage(storage.directory, group_commit=True)
        for index, value in enumerate(values):
            assert reopened.retrieve(("probe", index)) == value

    def test_read_your_writes_inside_barrier(self, storage):
        storage.log("outside", 1)
        with storage.write_barrier():
            storage.log("inside", 2)
            storage.log("none-valued", None)
            assert storage.retrieve("inside") == 2
            assert storage.retrieve("outside") == 1
            # A logged None is a present value, not a miss.
            assert storage.contains("none-valued")
            assert storage.retrieve("none-valued", "default") is None
        assert storage.retrieve("inside") == 2

    def test_keys_see_pending_overlay(self, storage):
        storage.log("kept", 1)
        storage.log("doomed", 2)
        with storage.write_barrier():
            storage.log("fresh", 3)
            storage.delete("doomed")
            assert sorted(storage.keys()) == ["fresh", "kept"]
        assert sorted(storage.keys()) == ["fresh", "kept"]


class TestCrashRecovery:
    def test_journal_replay_restores_buffered_writes(self, tmp_path):
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            for index in range(6):
                storage.log(("r", index), ["value", index])
        # Crash: per-key files were written buffered (no fsync); model
        # the worst case by corrupting one of them outright.  The
        # journal alone must bring the value back.
        victim = next(name for name in os.listdir(str(tmp_path))
                      if name != _JOURNAL_NAME)
        with open(os.path.join(str(tmp_path), victim), "wb") as handle:
            handle.write(b"\x00torn")
        reopened = FileStorage(str(tmp_path), group_commit=True)
        for index in range(6):
            assert reopened.retrieve(("r", index)) == ["value", index]
        assert any(key == _JOURNAL_NAME
                   for key, _ in reopened.recovery_report)
        # Replay healed the torn file: nothing was quarantined.
        assert not any("quarantine" in defect
                       for _, defect in reopened.recovery_report)

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            storage.log("a", 1)
        journal = os.path.join(str(tmp_path), _JOURNAL_NAME)
        with open(journal, "ab") as handle:
            torn = frame_record(codec.encode(("w", "b", codec.encode(2))))
            handle.write(torn[:-3])
        reopened = FileStorage(str(tmp_path), group_commit=True)
        assert reopened.retrieve("a") == 1
        assert reopened.retrieve("b") is None

    def test_undecodable_journal_record_ends_replay_like_a_tear(
            self, tmp_path):
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            storage.log("a", 1)
        journal = os.path.join(str(tmp_path), _JOURNAL_NAME)
        with open(journal, "ab") as handle:
            handle.write(frame_record(b"\xffnot a codec value"))
            handle.write(frame_record(
                codec.encode(("w", "b", codec.encode(2)))))
        reopened = FileStorage(str(tmp_path), group_commit=True)
        assert reopened.retrieve("a") == 1
        assert reopened.retrieve("b") is None

    def test_delete_does_not_resurrect_after_replay(self, tmp_path):
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            storage.log("key", "value")
        storage.delete("key")
        reopened = FileStorage(str(tmp_path), group_commit=True)
        assert not reopened.contains("key")
        assert reopened.retrieve("key") is None

    def test_values_survive_plain_reopen(self, tmp_path):
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            storage.log("x", {"deep": [1, (2, 3)]})
        reopened = FileStorage(str(tmp_path), group_commit=True)
        assert reopened.retrieve("x") == {"deep": [1, (2, 3)]}

    def test_group_commit_dir_opens_in_classic_mode(self, tmp_path):
        """Downgrade path: a directory written with group commit must
        stay readable by a classic-mode instance (the journal is
        replayed by whoever opens the directory next)."""
        storage = FileStorage(str(tmp_path), group_commit=True)
        with storage.write_barrier():
            storage.log("k", 9)
        classic = FileStorage(str(tmp_path), group_commit=False)
        assert classic.retrieve("k") == 9
