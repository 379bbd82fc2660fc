"""Crash-atomicity and self-healing tests for file-backed stable storage.

The crash-recovery model assumes ``log`` is atomic: a crash during a
write must leave either the old value or the new one, never a torn
file.  FileStorage implements this with write-to-temp + fsync + rename +
directory fsync, and defends in depth with per-record CRC32 framing: a
record that is torn or bit-rotted anyway (non-atomic filesystem, media
fault) is detected and quarantined instead of being served.  These tests
simulate crashes at each step and corruption of each kind and check the
invariants.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.storage.faulty import FaultyStorage, InjectedCrashFault
from repro.storage.file import FileStorage, frame_record
from repro.storage.memory import MemoryStorage


class TestCrashDuringWrite:
    def test_crash_before_rename_preserves_old_value(self, tmp_path,
                                                      monkeypatch):
        storage = FileStorage(str(tmp_path / "store"))
        storage.log("key", "old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            storage.log("key", "new")
        monkeypatch.undo()
        # A fresh incarnation over the same directory sees the old value.
        reopened = FileStorage(str(tmp_path / "store"))
        assert reopened.retrieve("key") == "old"

    def test_no_temp_file_litter_after_crash(self, tmp_path,
                                             monkeypatch):
        storage = FileStorage(str(tmp_path / "store"))
        storage.log("key", "old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            storage.log("key", "new")
        monkeypatch.undo()
        leftovers = [name for name in os.listdir(str(tmp_path / "store"))
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_crash_on_first_write_leaves_key_absent(self, tmp_path,
                                                    monkeypatch):
        storage = FileStorage(str(tmp_path / "store"))

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            storage.log("never", "written")
        monkeypatch.undo()
        assert FileStorage(str(tmp_path / "store")) \
            .retrieve("never") is None

    def test_successful_write_is_complete_record(self, tmp_path):
        storage = FileStorage(str(tmp_path / "store"))
        storage.log(("consensus", 0, "proposal"), {"complex": [1, (2,)]})
        # Read the raw file: the frame must verify and the payload decode
        # standalone (no torn writes).
        from repro.storage import codec
        from repro.storage.file import unframe_record
        directory = str(tmp_path / "store")
        (filename,) = os.listdir(directory)
        with open(os.path.join(directory, filename), "rb") as handle:
            payload = unframe_record(handle.read())
        assert codec.decode(payload) == {"complex": [1, (2,)]}

    def test_kill_halfway_through_the_write_keeps_old_value(self, tmp_path,
                                                            monkeypatch):
        # Regression: kill the write mid-payload (the fsync never runs)
        # and confirm neither the old record nor the directory is harmed.
        storage = FileStorage(str(tmp_path / "store"))
        storage.log("key", {"v": "old"})

        real_fsync = os.fsync
        write_count = {"n": 0}

        def exploding_fsync(fd):
            write_count["n"] += 1
            raise OSError("simulated power cut mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            storage.log("key", {"v": "new"})
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert write_count["n"] == 1
        reopened = FileStorage(str(tmp_path / "store"))
        assert reopened.retrieve("key") == {"v": "old"}
        assert reopened.recovery_report == []


def _record_file(directory):
    names = [n for n in os.listdir(directory) if n.endswith(".rec")]
    assert len(names) == 1
    return os.path.join(directory, names[0])


class TestSelfHealing:
    """Detection and quarantine of records that got corrupt anyway."""

    def test_torn_tail_is_detected_and_recovered_from(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("round", {"proposal": list(range(50))})
        target = _record_file(directory)
        with open(target, "rb") as handle:
            raw = handle.read()
        with open(target, "wb") as handle:
            handle.write(raw[:len(raw) // 2])  # torn tail

        recovered = FileStorage(directory)
        assert recovered.retrieve("round") is None  # never durably logged
        assert recovered.metrics.quarantined == 1
        assert [key for key, _ in recovered.recovery_report] == ["round"]
        # The record can be re-logged and read back cleanly.
        recovered.log("round", {"proposal": [1]})
        assert recovered.retrieve("round") == {"proposal": [1]}

    def test_bit_flip_is_detected_and_recovered_from(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("epoch", 41)
        target = _record_file(directory)
        with open(target, "rb") as handle:
            raw = bytearray(handle.read())
        raw[-2] ^= 0x10  # flip one payload bit
        with open(target, "wb") as handle:
            handle.write(raw)

        recovered = FileStorage(directory)
        assert recovered.retrieve("epoch") is None
        assert recovered.metrics.quarantined == 1
        assert "checksum" in recovered.recovery_report[0][1]

    def test_lazy_detection_without_reopen(self, tmp_path):
        # Corruption after the open-time scan is caught at read time.
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("k", "value")
        target = _record_file(directory)
        with open(target, "wb") as handle:
            handle.write(b"garbage, no frame header at all")
        assert storage.retrieve("k", default="fallback") == "fallback"
        assert storage.metrics.quarantined == 1
        assert "k" not in list(storage.keys())

    def test_undecodable_payload_is_quarantined_like_a_torn_record(
            self, tmp_path):
        # The frame checks out (CRC and length match) but the payload is
        # not a codec value: that is corruption too, not a crash.
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("k", "value")
        target = _record_file(directory)
        with open(target, "wb") as handle:
            handle.write(frame_record(b"\xffnot a codec value"))
        reopened = FileStorage(directory)
        assert reopened.retrieve("k", default="fallback") == "fallback"
        assert reopened.metrics.quarantined == 1
        assert [key for key, _ in reopened.recovery_report] == ["k"]
        assert "k" not in list(reopened.keys())
        assert len(os.listdir(os.path.join(directory, "quarantine"))) == 1

    def test_quarantined_records_are_preserved_for_forensics(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("k", "value")
        target = _record_file(directory)
        with open(target, "wb") as handle:
            handle.write(b"xx")
        FileStorage(directory)
        pen = os.path.join(directory, "quarantine")
        assert os.path.isdir(pen)
        assert len(os.listdir(pen)) == 1

    def test_stale_temp_files_are_swept_on_open(self, tmp_path):
        directory = str(tmp_path / "store")
        FileStorage(directory)
        with open(os.path.join(directory, "dead.tmp"), "w") as handle:
            handle.write("half a rec")
        reopened = FileStorage(directory)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))
        assert ("dead.tmp", "stale temp file") in reopened.recovery_report

    def test_healthy_records_survive_the_scan(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        for k in range(5):
            storage.log(("key", k), {"n": k})
        reopened = FileStorage(directory)
        assert reopened.recovery_report == []
        assert reopened.metrics.quarantined == 0
        for k in range(5):
            assert reopened.retrieve(("key", k)) == {"n": k}


class TestFaultyStorage:
    """The seeded disk-fault injector used by the chaos engine."""

    def test_armed_fail_crashes_before_the_write(self, tmp_path):
        inner = FileStorage(str(tmp_path / "store"))
        faulty = FaultyStorage(inner, random.Random(3), node_hint=2)
        faulty.log("k", "old")
        faulty.arm_crash_write("fail")
        with pytest.raises(InjectedCrashFault) as excinfo:
            faulty.log("k", "new")
        assert excinfo.value.node_hint == 2
        assert faulty.injected["write_crash"] == 1
        # Old value untouched; fault is one-shot.
        assert faulty.retrieve("k") == "old"
        faulty.log("k", "newer")
        assert faulty.retrieve("k") == "newer"

    def test_armed_torn_write_lands_corrupt_and_heals(self, tmp_path):
        directory = str(tmp_path / "store")
        inner = FileStorage(directory)
        faulty = FaultyStorage(inner, random.Random(5))
        faulty.log("k", {"payload": list(range(40))})
        faulty.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault):
            faulty.log("k", {"payload": list(range(80))})
        assert faulty.injected["torn_write"] == 1
        # The torn record is on disk; a recovering incarnation heals it.
        recovered = FileStorage(directory)
        assert recovered.retrieve("k") is None
        assert recovered.metrics.quarantined == 1

    def test_torn_degrades_to_fail_on_memory_backend(self):
        faulty = FaultyStorage(MemoryStorage(), random.Random(1))
        faulty.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault) as excinfo:
            faulty.log("k", "v")
        assert excinfo.value.mode == "write-crash"
        assert faulty.injected["write_crash"] == 1
        assert faulty.retrieve("k") is None

    def test_bit_flip_corrupts_then_reader_heals(self, tmp_path):
        directory = str(tmp_path / "store")
        inner = FileStorage(directory)
        faulty = FaultyStorage(inner, random.Random(9))
        faulty.log("k", {"stable": "data"})
        assert faulty.flip_bit("k") is True
        assert faulty.injected["bit_flip"] == 1
        # The shared metrics object records the quarantine on read.
        assert faulty.retrieve("k") is None
        assert inner.metrics.quarantined == 1
        assert faulty.metrics is inner.metrics

    def test_probabilistic_faults_are_seed_deterministic(self, tmp_path):
        def run(seed):
            inner = MemoryStorage()
            faulty = FaultyStorage(inner, random.Random(seed),
                                   fail_rate=0.3)
            outcomes = []
            for k in range(30):
                try:
                    faulty.log(("key", k), k)
                    outcomes.append("ok")
                except InjectedCrashFault:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert "fault" in run(7) and "ok" in run(7)

    def test_disarm_stops_all_faults(self):
        faulty = FaultyStorage(MemoryStorage(), random.Random(2),
                               fail_rate=1.0)
        faulty.arm_crash_write("fail")
        faulty.disarm()
        faulty.log("k", "v")
        assert faulty.retrieve("k") == "v"
