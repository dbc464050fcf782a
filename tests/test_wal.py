"""Tests for the snapshot + WAL recovery log (paper §4.4)."""
import os

import numpy as np
import pytest

from repro.blockstore.wal import CorruptLogError, RecoveryLog


@pytest.fixture()
def log(tmp_path) -> RecoveryLog:
    return RecoveryLog(str(tmp_path / "wal"))


class TestRecoveryLog:
    def test_fresh_log_is_empty(self, log):
        state, records = log.recover()
        assert state is None and records == []

    def test_log_and_recover_records(self, log):
        log.log(("insert", 1))
        log.log(("delete", 2))
        _, records = log.recover()
        assert records == [("insert", 1), ("delete", 2)]

    def test_snapshot_truncates_wal(self, log):
        log.log(("insert", 1))
        log.snapshot({"n": 1})
        state, records = log.recover()
        assert state == {"n": 1} and records == []

    def test_records_after_snapshot_are_kept(self, log):
        log.snapshot({"n": 0})
        log.log(("insert", 5))
        state, records = log.recover()
        assert state == {"n": 0} and records == [("insert", 5)]

    def test_newer_snapshot_replaces_older(self, log):
        log.snapshot({"n": 1})
        log.log("x")
        log.snapshot({"n": 2})
        state, records = log.recover()
        assert state == {"n": 2} and records == []

    def test_replay_applies_in_order(self, log):
        for i in range(10):
            log.log(i)
        seen = []
        n = log.replay(seen.append)
        assert n == 10 and seen == list(range(10))

    def test_recovery_survives_process_crash(self, tmp_path):
        # "crash" = drop the live object; a fresh instance reads from disk
        path = str(tmp_path / "wal2")
        log1 = RecoveryLog(path)
        log1.snapshot({"base": True})
        log1.log(("insert", 42))
        del log1  # no close() — simulates a crash
        log2 = RecoveryLog(path)
        state, records = log2.recover()
        assert state == {"base": True} and records == [("insert", 42)]

    def test_arbitrary_payloads(self, log):
        vec = np.arange(4, dtype=np.float32)
        log.log(("insert", 7, vec))
        _, records = log.recover()
        op, vid, v = records[0]
        assert op == "insert" and vid == 7
        np.testing.assert_array_equal(v, vec)


def five_record_wal(tmp_path) -> tuple[str, list, list[int]]:
    """A WAL of five insert records; returns its directory, the records
    and the byte offset where each frame ends."""
    root = str(tmp_path / "wal")
    log = RecoveryLog(root)
    records, ends = [], []
    for i in range(5):
        records.append(("insert", i, np.arange(8, dtype=np.float32) + i))
        log.log(records[-1])
        ends.append(os.path.getsize(os.path.join(root, "wal.pkl")))
    log.close()
    return root, records, ends


def assert_records_equal(got, expect):
    assert len(got) == len(expect)
    for (op, vid, vec), (op2, vid2, vec2) in zip(got, expect):
        assert (op, vid) == (op2, vid2)
        np.testing.assert_array_equal(vec, vec2)


class TestTornWal:
    @pytest.mark.parametrize("cut", [1, 7, 30])
    def test_torn_final_record_ends_the_log(self, tmp_path, cut):
        root, records, ends = five_record_wal(tmp_path)
        assert ends[-1] - ends[-2] > 30
        os.truncate(os.path.join(root, "wal.pkl"), ends[-1] - cut)
        _, got = RecoveryLog(root).recover()
        assert_records_equal(got, records[:4])

    def test_torn_header_ends_the_log(self, tmp_path):
        root, records, ends = five_record_wal(tmp_path)
        os.truncate(os.path.join(root, "wal.pkl"), ends[-2] + 3)
        _, got = RecoveryLog(root).recover()
        assert_records_equal(got, records[:4])

    def test_bad_crc_final_record_ends_the_log(self, tmp_path):
        root, records, ends = five_record_wal(tmp_path)
        flip_byte(os.path.join(root, "wal.pkl"), ends[-1] - 5)
        _, got = RecoveryLog(root).recover()
        assert_records_equal(got, records[:4])

    def test_records_logged_after_a_torn_tail_are_recovered(self, tmp_path):
        root, records, ends = five_record_wal(tmp_path)
        os.truncate(os.path.join(root, "wal.pkl"), ends[-1] - 7)
        log = RecoveryLog(root)
        log.recover()
        log.log(records[4])
        _, got = RecoveryLog(root).recover()
        assert_records_equal(got, records)

    def test_corrupt_middle_record_raises(self, tmp_path):
        root, _, ends = five_record_wal(tmp_path)
        flip_byte(os.path.join(root, "wal.pkl"), ends[1] - 5)
        with pytest.raises(CorruptLogError):
            RecoveryLog(root).recover()


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0xFF]))
