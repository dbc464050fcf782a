"""Snapshot + write-ahead-log crash recovery (paper §4.4).

The paper snapshots the in-memory structures (centroid index, version
map, block mapping + free pool) periodically and logs every update request
between snapshots; recovery loads the latest snapshot and replays the WAL.
Disk data is made consistent by block-level copy-on-write: blocks freed
between two snapshots sit in a pre-release buffer and only enter the free
pool once the next snapshot lands (see ``BlockController.pre_release``).

:class:`RecoveryLog` is filesystem-backed (pickle) so a test can "crash"
by discarding the live index object and rebuild purely from disk. Each
WAL record is one frame: payload length and CRC32 (little-endian uint32
each), then the pickled payload. A write interrupted by a crash leaves a
short or bad-CRC *final* frame, which recovery treats as the end of the
log; a bad frame with more data after it is corruption and raises.
"""
from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Callable

_HEADER = struct.Struct("<II")  # payload length, CRC32 of the payload


class CorruptLogError(Exception):
    """A WAL frame that is not the last one fails its length or CRC check."""


class RecoveryLog:
    """Durable snapshot + WAL pair under a directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._wal_path = os.path.join(root, "wal.pkl")
        self._snap_path = os.path.join(root, "snapshot.pkl")
        self._wal_fh = open(self._wal_path, "ab")

    # -- logging ----------------------------------------------------------
    def log(self, record: Any) -> None:
        """Append one update record (insert/delete request) to the WAL."""
        payload = pickle.dumps(record)
        self._wal_fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        self._wal_fh.flush()

    def snapshot(self, state: Any) -> None:
        """Write a new snapshot, then truncate the WAL (paper: WAL deleted
        when a new snapshot is generated)."""
        tmp = self._snap_path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(state, fh)
        os.replace(tmp, self._snap_path)
        self._wal_fh.close()
        self._wal_fh = open(self._wal_path, "wb")

    # -- recovery ---------------------------------------------------------
    def recover(self) -> tuple[Any, list[Any]]:
        """Return (latest snapshot state or None, WAL records since it).

        A torn final frame is cut off the file, so that records logged
        after recovery follow the last whole one.
        """
        state = None
        if os.path.exists(self._snap_path):
            with open(self._snap_path, "rb") as fh:
                state = pickle.load(fh)
        records: list[Any] = []
        if os.path.exists(self._wal_path):
            with open(self._wal_path, "rb") as fh:
                data = fh.read()
            records, end = _read_frames(data)
            if end < len(data):
                os.truncate(self._wal_path, end)
        return state, records

    def replay(self, apply: Callable[[Any], None]) -> int:
        """Apply every WAL record through ``apply``; returns the count."""
        _, records = self.recover()
        for r in records:
            apply(r)
        return len(records)

    def close(self) -> None:
        self._wal_fh.close()


def _read_frames(data: bytes) -> tuple[list[Any], int]:
    """Every whole WAL frame's record, and the byte offset where they end.

    A short or bad-CRC final frame (a write torn by a crash) ends the log;
    a bad frame with more data after it raises :class:`CorruptLogError`.
    """
    records: list[Any] = []
    pos = 0
    while pos + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, pos)
        start = pos + _HEADER.size
        end = start + length
        if end > len(data) or zlib.crc32(data[start:end]) != crc:
            if end >= len(data):
                break
            raise CorruptLogError(f"WAL frame at byte {pos} fails its CRC check")
        records.append(pickle.loads(data[start:end]))
        pos = end
    return records, pos
