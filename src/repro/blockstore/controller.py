"""Block Controller: the paper's user-space storage engine (§4.3).

Postings are stored as chains of fixed-size SSD blocks. The controller
keeps the paper's three in-memory structures: *Block Mapping* (posting id →
block offsets + length), *Free Block Pool*, and (implicitly, via the
simulated device's batch API) a concurrent I/O queue. The posting API is
the paper's: GET, ParallelGET, APPEND (read-modify-write of the last block
only), PUT (bulk write + atomic mapping swap, releasing old blocks), plus
DELETE. All writes are copy-on-write: a block is never updated in place,
so released blocks can be parked in a pre-release buffer between snapshots
for the §4.4 crash-recovery roll-back.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockstore.ssd import SimulatedSSD

# Paper: a block-mapping entry (length + block offsets) costs ~40 B.
MAPPING_ENTRY_BYTES = 40


@dataclass
class Posting:
    """In-memory image of one posting: parallel arrays of tuple fields.

    Matches the paper's on-disk tuple layout ``<vector id, version number,
    raw vector>``. ``vecs`` rows are the raw vectors (float32 here; the
    byte-vector storage footprint is modelled via ``entry_bytes``).
    """

    vids: np.ndarray  # int64 (n,)
    versions: np.ndarray  # int16 (n,)
    vecs: np.ndarray  # float32 (n, dim)

    def __len__(self) -> int:
        return len(self.vids)

    @staticmethod
    def empty(dim: int) -> "Posting":
        return Posting(
            np.empty(0, np.int64), np.empty(0, np.int16), np.empty((0, dim), np.float32)
        )

    @staticmethod
    def concat(parts: list["Posting"]) -> "Posting":
        """Join postings in order; a single non-empty part is returned
        as-is (no copy), so reading a one-block posting aliases the block."""
        parts = [p for p in parts if len(p)]
        if not parts:
            raise ValueError("concat of empty parts needs a dim; use Posting.empty")
        if len(parts) == 1:
            return parts[0]
        return Posting(
            np.concatenate([p.vids for p in parts]),
            np.concatenate([p.versions for p in parts]),
            np.vstack([p.vecs for p in parts]),
        )

    def slice(self, lo: int, hi: int) -> "Posting":
        return Posting(self.vids[lo:hi], self.versions[lo:hi], self.vecs[lo:hi])

    def take(self, idx: np.ndarray) -> "Posting":
        return Posting(self.vids[idx], self.versions[idx], self.vecs[idx])


@dataclass
class _MapEntry:
    length: int  # number of tuples stored
    block_ids: list[int] = field(default_factory=list)


class BlockController:
    """Posting store over a :class:`SimulatedSSD` with I/O cost accounting.

    ``dim`` fixes the tuple size: 8 B vector id + 1 B version + ``dim`` B
    raw vector (the paper's datasets are byte vectors), from which the
    tuples-per-block capacity follows. Every public call returns the
    simulated device latency in µs so callers can assemble per-operation
    latency figures.
    """

    def __init__(self, ssd: SimulatedSSD, dim: int):
        self.ssd = ssd
        self.dim = dim
        self.entry_bytes = 8 + 1 + dim
        self.entries_per_block = max(1, ssd.block_bytes // self.entry_bytes)
        self._mapping: dict[int, _MapEntry] = {}
        self._next_block = 0
        self._free: list[int] = []
        # Blocks released since the last snapshot; rolled into the free
        # pool only after the *next* snapshot (§4.4 block-level CoW).
        self.pre_release: list[int] = []
        self.defer_release = False

    # -- free pool --------------------------------------------------------
    def _alloc(self, n: int) -> list[int]:
        out: list[int] = []
        while self._free and len(out) < n:
            out.append(self._free.pop())
        while len(out) < n:
            out.append(self._next_block)
            self._next_block += 1
        return out

    def _release(self, block_ids: list[int]) -> None:
        if self.defer_release:
            self.pre_release.extend(block_ids)
        else:
            self.ssd.discard(block_ids)
            self._free.extend(block_ids)

    def flush_pre_release(self) -> None:
        """Move pre-released blocks into the free pool (post-snapshot)."""
        self.ssd.discard(self.pre_release)
        self._free.extend(self.pre_release)
        self.pre_release = []

    # -- helpers ----------------------------------------------------------
    def _chunk(self, posting: Posting) -> list[Posting]:
        """Split a posting into block payloads. The payloads are read-only
        views: GET and ParallelGET hand them out without copying."""
        epb = self.entries_per_block
        chunks = [posting.slice(i, i + epb) for i in range(0, len(posting), epb)]
        for c in chunks:
            for a in (c.vids, c.versions, c.vecs):
                a.setflags(write=False)
        return chunks

    def exists(self, pid: int) -> bool:
        return pid in self._mapping

    def length(self, pid: int) -> int:
        return self._mapping[pid].length

    def n_blocks(self, pid: int) -> int:
        return len(self._mapping[pid].block_ids)

    @property
    def posting_ids(self) -> list[int]:
        return list(self._mapping)

    def memory_bytes(self) -> int:
        """Modelled DRAM of the block mapping (paper: ~40 B/posting)."""
        return MAPPING_ENTRY_BYTES * len(self._mapping) + 8 * len(self._free)

    # -- posting API (paper §4.3) ----------------------------------------
    def put(self, pid: int, posting: Posting) -> float:
        """PUT: bulk-write a whole posting, atomically swap the mapping."""
        chunks = self._chunk(posting) if len(posting) else []
        blocks = self._alloc(len(chunks))
        cost = self.ssd.write(dict(zip(blocks, chunks))) if blocks else 0.0
        old = self._mapping.get(pid)
        self._mapping[pid] = _MapEntry(len(posting), blocks)
        if old is not None:
            self._release(old.block_ids)
        return cost

    def get(self, pid: int) -> tuple[Posting, float]:
        """GET: read all blocks of a posting (one batched I/O)."""
        entry = self._mapping[pid]
        if not entry.block_ids:
            return Posting.empty(self.dim), 0.0
        payloads, cost = self.ssd.read(entry.block_ids)
        return Posting.concat(payloads), cost

    def get_many(self, pids: list[int]) -> tuple[dict[int, Posting], float]:
        """ParallelGET: fetch several postings in one batched I/O."""
        order: list[tuple[int, int]] = []  # (pid, its block count)
        all_blocks: list[int] = []
        for pid in pids:
            entry = self._mapping[pid]
            order.append((pid, len(entry.block_ids)))
            all_blocks.extend(entry.block_ids)
        if not all_blocks:
            return {pid: Posting.empty(self.dim) for pid in pids}, 0.0
        payloads, cost = self.ssd.read(all_blocks)
        out: dict[int, Posting] = {}
        at = 0
        for pid, nb in order:
            out[pid] = (
                Posting.concat(payloads[at : at + nb]) if nb else Posting.empty(self.dim)
            )
            at += nb
        return out, cost

    def append(self, pid: int, tail: Posting) -> float:
        """APPEND: RMW of the last block only, CoW, atomic mapping update.

        Reads the current last block iff it is partially filled, merges the
        new tuples, writes fresh blocks, then swaps the mapping entry and
        releases the replaced last block — the paper's low-amplification
        append path.
        """
        entry = self._mapping[pid]
        epb = self.entries_per_block
        cost = 0.0
        used_in_last = entry.length % epb
        merged = tail
        replaced: list[int] = []
        if entry.block_ids and used_in_last != 0:
            last_id = entry.block_ids[-1]
            payloads, c = self.ssd.read([last_id])
            cost += c
            merged = Posting.concat([payloads[0], tail])
            replaced = [last_id]
        chunks = self._chunk(merged)
        new_blocks = self._alloc(len(chunks))
        cost += self.ssd.write(dict(zip(new_blocks, chunks)))
        kept = entry.block_ids[:-1] if replaced else entry.block_ids
        self._mapping[pid] = _MapEntry(entry.length + len(tail), kept + new_blocks)
        self._release(replaced)
        return cost

    def delete(self, pid: int) -> float:
        """Drop a posting, releasing its blocks. No device I/O charged."""
        entry = self._mapping.pop(pid)
        self._release(entry.block_ids)
        return 0.0

    # -- snapshot support (§4.4) -----------------------------------------
    def state(self) -> dict:
        """Serializable controller state (mapping, free pool, payloads)."""
        return {
            "mapping": {pid: (e.length, list(e.block_ids)) for pid, e in self._mapping.items()},
            "next_block": self._next_block,
            "free": list(self._free),
            "blocks": dict(self.ssd._blocks),
        }

    def restore(self, state: dict) -> None:
        self._mapping = {pid: _MapEntry(ln, list(bs)) for pid, (ln, bs) in state["mapping"].items()}
        self._next_block = state["next_block"]
        self._free = list(state["free"])
        self.ssd._blocks = dict(state["blocks"])
        self.pre_release = []
