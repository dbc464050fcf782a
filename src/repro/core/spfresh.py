"""The SPFresh engine: Updater + Local Rebuilder + Searcher (paper §4).

Single-node reference implementation of the LIRE protocol over the
simulated Block Controller. The *Updater* appends a new vector to its
nearest posting(s) and tombstones deletes in the version map; when a
posting exceeds the split limit it enqueues a split job. The *Local
Rebuilder* drains a job queue of split / merge / reassign jobs —
off the foreground critical path, as the paper's feed-forward pipeline —
applying the two LIRE necessary conditions to find the minimal reassign
set and using version-CAS to execute reassignments. The *Searcher*
probes the nprobe nearest postings via ParallelGET, filters stale
replicas, and triggers merges for undersized postings.

Feature flags reproduce the paper's ablations: ``rebalance=False`` is
the SPANN+ baseline (append-only + GC), ``reassign=False`` the
"in-place + split" variant of Fig. 10.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.blockstore.controller import BlockController, Posting
from repro.blockstore.ssd import SimulatedSSD
from repro.core.centroid_index import CentroidIndex, GraphCentroidIndex
from repro.core.clustering import (
    balanced_two_means,
    closure_assign,
    closure_counts,
    hierarchical_balanced_clustering,
)
from repro.core.distances import pairwise_sq_l2, topk_indices
from repro.core.latency import LatencyModel
from repro.core.lire import condition_one, condition_two
from repro.core.version_map import VersionMap


@dataclass
class SPFreshConfig:
    """Engine knobs; defaults are the paper's, scaled (DESIGN.md §5)."""

    dim: int
    split_limit: int = 96  # paper's posting length limit, scaled
    merge_limit: int = 8  # minimum live length before merge
    reassign_range: int = 8  # nearby postings checked after a split (paper: 64)
    nprobe: int = 8  # postings probed per query (paper: 64)
    max_replicas: int = 4  # closure replication cap (paper avg 5.47 replicas)
    closure_eps: float = 0.10
    rebalance: bool = True  # False → SPANN+ (append-only + GC)
    reassign: bool = True  # False → "in-place + split" ablation
    merge: bool = True
    use_graph_index: bool = False  # SPTAG-like navigator instead of exact
    seed: int = 0


@dataclass
class EngineStats:
    """Counters behind the paper's §5.2.2 LIRE statistics."""

    inserts: int = 0
    deletes: int = 0
    splits: int = 0
    gc_rewrites: int = 0
    merges: int = 0
    inserts_triggering_rebalance: int = 0
    reassign_jobs: int = 0
    reassign_evaluated: int = 0
    reassign_moved: int = 0
    reassign_aborted_cas: int = 0
    max_cascade_depth: int = 0
    background_io_us: float = 0.0
    background_cpu_us: float = 0.0
    foreground_io_us: float = 0.0
    cascade_splits: list[int] = field(default_factory=list)  # splits per trigger


class SPFreshIndex:
    """Cluster-based updatable ANN index with in-place LIRE rebalancing."""

    def __init__(self, config: SPFreshConfig, ssd: SimulatedSSD | None = None):
        self.config = config
        self.ssd = ssd or SimulatedSSD()
        self.controller = BlockController(self.ssd, config.dim)
        idx_cls = GraphCentroidIndex if config.use_graph_index else CentroidIndex
        self.centroid_index: CentroidIndex = idx_cls(config.dim)
        self.version_map = VersionMap()
        self.latency = LatencyModel()
        self.jobs: deque[tuple] = deque()
        self._pending: set[tuple[str, int]] = set()  # dedupe split/gc/merge jobs
        self.stats = EngineStats()
        self._vecs: dict[int, np.ndarray] = {}  # vid → raw vector (DRAM-free in paper; kept for reassign/merge convenience)
        self._rng = np.random.default_rng(config.seed)
        self._split_seq = 0

    # ------------------------------------------------------------------
    # Build (SPANN hierarchical balanced clustering + closure assignment)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig, ssd: SimulatedSSD | None = None
    ) -> "SPFreshIndex":
        """Build a balanced index from scratch (the paper's initial state)."""
        self = cls(config, ssd)
        vecs = np.asarray(vecs, dtype=np.float32)
        vids = np.asarray(vids, dtype=np.int64)
        # Closure replication multiplies posting occupancy by rho; size the
        # clustering leaves so post-replication postings sit at ~60% of the
        # split limit (SPANN's balanced build leaves headroom for appends).
        target = max(2, int(config.split_limit * 0.6))
        centroids, _ = hierarchical_balanced_clustering(
            vecs, max_size=target, seed=config.seed
        )
        assign = closure_assign(
            vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
        )
        rho = sum(len(a) for a in assign) / max(1, len(assign))
        if rho > 1.15:
            target = max(2, int(config.split_limit * 0.6 / rho))
            centroids, _ = hierarchical_balanced_clustering(
                vecs, max_size=target, seed=config.seed
            )
            assign = closure_assign(
                vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
            )
        pids = [self.centroid_index.add(c) for c in centroids]
        per_pid: dict[int, list[int]] = {p: [] for p in pids}
        for row, cols in enumerate(assign):
            for c in cols:
                per_pid[pids[c]].append(row)
        for vid, vec in zip(vids, vecs):
            self.version_map.add(int(vid))
            self._vecs[int(vid)] = vec
        for pid, rows in per_pid.items():
            rows_a = np.asarray(rows, dtype=np.int64)
            posting = Posting(
                vids[rows_a],
                np.zeros(len(rows_a), dtype=np.int16),
                vecs[rows_a],
            )
            self.controller.put(pid, posting)
        return self

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _closure_pids(self, vecs: np.ndarray) -> list[np.ndarray]:
        """Closure-assigned alive posting ids for each row of ``vecs``.

        One navigation for all rows: the navigator returns each row's
        ``max_replicas`` nearest postings with their distances (nearest
        first, ties by id), and the closure ratio cuts every row at once,
        as :func:`closure_assign` does. Navigation reads only the centroid
        index, which neither appends nor version-CAS change, so a batch
        can be navigated before any of its rows is placed. The distances
        come from one (rows × centroids) matrix product, which can round
        the last bit differently from a one-row product; a row's postings
        differ from a lone navigation's only if two candidates, or a
        candidate and the closure cut, are that close.
        """
        cfg = self.config
        pids, dist = self.centroid_index.search_batch(vecs, cfg.max_replicas)
        return [row[:n] for row, n in zip(pids, closure_counts(dist, cfg.closure_eps))]

    def _live(self, posting: Posting) -> Posting:
        """Drop stale tuples and duplicate replicas within one posting."""
        if not len(posting):
            return posting
        stale = self.version_map.is_stale(posting.vids, posting.versions)
        live = posting.take(~stale)
        if len(live):
            _, first = np.unique(live.vids, return_index=True)
            live = live.take(np.sort(first))
        return live

    def _maybe_enqueue_split(self, pid: int, depth: int) -> None:
        if not self.controller.exists(pid):
            return
        length = self.controller.length(pid)
        if length <= self.config.split_limit:
            return
        if self.config.rebalance:
            if ("split", pid) not in self._pending:
                self._pending.add(("split", pid))
                self.jobs.append(("split", pid, depth))
        elif length % self.config.split_limit == 0:
            # SPANN+ has no split: only periodic background GC rewrites that
            # prune stale replicas; postings may grow without bound.
            if ("gc", pid) not in self._pending:
                self._pending.add(("gc", pid))
                self.jobs.append(("gc", pid))

    # ------------------------------------------------------------------
    # Updater (foreground, paper §4.1)
    # ------------------------------------------------------------------
    def insert(self, vid: int, vec: np.ndarray, pids: np.ndarray | None = None) -> float:
        """Insert one vector; returns simulated foreground latency (µs).

        ``pids`` are the vector's closure postings when the caller has
        navigated already (:meth:`insert_batch`); the charge is the same
        either way.
        """
        vec = np.asarray(vec, dtype=np.float32)
        self.version_map.add(vid)
        self._vecs[vid] = vec
        if pids is None:
            pids = self._closure_pids(vec[None, :])[0]
        io = 0.0
        tail = Posting(
            np.asarray([vid], dtype=np.int64),
            np.zeros(1, dtype=np.int16),
            vec[None, :],
        )
        before_jobs = len(self.jobs)
        for pid in pids:
            io += self.controller.append(int(pid), tail)
            self._maybe_enqueue_split(int(pid), 0)
        if len(self.jobs) > before_jobs:
            self.stats.inserts_triggering_rebalance += 1
        self.stats.inserts += 1
        self.stats.foreground_io_us += io
        return self.latency.insert_us(
            n_centroids_compared=len(self.centroid_index), dim=self.config.dim, io_us=io
        )

    def insert_batch(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Insert a batch; returns per-vector simulated latency (µs).

        The batch is navigated once (:meth:`_closure_pids`); then each
        vector is placed by :meth:`insert` in batch order, so its appends,
        split triggers and simulated charge (navigation over every
        centroid, one APPEND per replica) are those of a lone insert.
        Inserts only queue jobs and never change the centroid index, so
        navigating before placing gives every vector the postings it
        would get on its own.
        """
        if not len(vids):
            return np.empty(0)
        vecs = np.asarray(vecs, dtype=np.float32)
        pids = self._closure_pids(vecs)
        return np.asarray([self.insert(int(v), x, p) for v, x, p in zip(vids, vecs, pids)])

    def delete(self, vid: int) -> float:
        """Tombstone a vector (O(1), in-memory only); returns latency µs."""
        self.version_map.delete(vid)
        self._vecs.pop(vid, None)
        self.stats.deletes += 1
        return self.latency.base_us

    # ------------------------------------------------------------------
    # Searcher (paper §3.1 / §4.1)
    # ------------------------------------------------------------------
    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        """Top-k vector ids for one query; returns (ids, simulated µs).

        The probed postings are scanned as one flat tuple array: one
        staleness mask, one replica dedupe per (posting, vid), one
        distance call and one top-k for the whole query.
        """
        q = np.asarray(q, dtype=np.float64)
        pids = self.centroid_index.search(q, self.config.nprobe)
        postings, io = self.controller.get_many([int(p) for p in pids])
        self.stats.foreground_io_us += io
        sizes = [len(p) for p in postings.values()]
        scanned = sum(sizes)
        lat = self.latency.search_us(
            n_centroids_compared=len(self.centroid_index),
            vectors_scanned=scanned,
            dim=self.config.dim,
            io_us=io,
        )
        if not scanned:
            return np.empty(0, dtype=np.int64), lat
        flat = Posting.concat(list(postings.values()))
        seg = np.repeat(np.arange(len(sizes)), sizes)
        live = np.flatnonzero(~self.version_map.is_stale(flat.vids, flat.versions))
        # duplicate replicas within one posting: the first occurrence wins
        key = seg[live] * (int(flat.vids.max()) + 1) + flat.vids[live]
        _, first = np.unique(key, return_index=True)
        live = live[np.sort(first)]
        self._enqueue_merges(postings, np.bincount(seg[live], minlength=len(sizes)))
        if not len(live):
            return np.empty(0, dtype=np.int64), lat
        vids = flat.vids[live]
        d = pairwise_sq_l2(q[None, :], flat.vecs[live])[0]
        # dedupe replicas across postings: keep the smallest distance per vid
        order = np.lexsort((d, vids))
        vids, d = vids[order], d[order]
        first = np.ones(len(vids), dtype=bool)
        first[1:] = vids[1:] != vids[:-1]
        vids, d = vids[first], d[first]
        return vids[topk_indices(d, k)], lat

    def _enqueue_merges(self, postings: dict[int, Posting], live_counts: np.ndarray) -> None:
        """Queue a merge, in probe order, for each probed posting whose live
        length is positive but under the merge limit."""
        cfg = self.config
        if not (cfg.rebalance and cfg.merge) or len(self.centroid_index) <= 1:
            return
        for pid, n_live in zip(postings, live_counts.tolist()):
            if 0 < n_live < cfg.merge_limit and ("merge", pid) not in self._pending:
                self._pending.add(("merge", pid))
                self.jobs.append(("merge", pid))

    def search_batch(self, qs: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        ids, lats = [], []
        for q in qs:
            r, l = self.search(q, k)
            ids.append(r)
            lats.append(l)
        return ids, np.asarray(lats)

    # ------------------------------------------------------------------
    # Local Rebuilder (background, paper §4.2)
    # ------------------------------------------------------------------
    def process_jobs(self, max_jobs: int | None = None) -> int:
        """Drain the rebuild job queue; returns the number of jobs run."""
        done = 0
        while self.jobs and (max_jobs is None or done < max_jobs):
            job = self.jobs.popleft()
            kind = job[0]
            if kind in ("split", "gc", "merge"):
                self._pending.discard((kind, job[1]))
            if kind == "split":
                self._split(job[1], job[2])
            elif kind == "gc":
                self._gc(job[1])
            elif kind == "merge":
                self._merge(job[1])
            elif kind == "reassign":
                self._reassign(*job[1:])
            done += 1
        return done

    def _gc(self, pid: int) -> None:
        """SPANN+ path: rewrite a posting dropping stale tuples, no split."""
        if not self.controller.exists(pid):
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        io += self.controller.put(pid, live)
        self.stats.gc_rewrites += 1
        self.stats.background_io_us += io

    def _split(self, pid: int, depth: int) -> None:
        if not self.controller.exists(pid):
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        cfg = self.config
        if len(live) <= cfg.split_limit:
            # garbage collection alone brought it under the limit (§4.2.1)
            io += self.controller.put(pid, live)
            self.stats.gc_rewrites += 1
            self.stats.background_io_us += io
            return
        self._split_seq += 1
        centers, labels = balanced_two_means(live.vecs, seed=cfg.seed + self._split_seq)
        old_centroid = self.centroid_index.centroid(pid).copy()
        new_pids = (self.centroid_index.add(centers[0]), self.centroid_index.add(centers[1]))
        for c, npid in zip((0, 1), new_pids):
            io += self.controller.put(npid, live.take(labels == c))
        self.centroid_index.remove(pid)
        self.controller.delete(pid)
        self.stats.splits += 1
        self.stats.max_cascade_depth = max(self.stats.max_cascade_depth, depth)
        self.stats.background_io_us += io
        # balanced 2-means cost model: n_iter Lloyd passes over the posting
        self.stats.background_cpu_us += self.latency.scan_us(8 * len(live), cfg.dim)
        if cfg.reassign:
            self.jobs.append(("reassign", old_centroid, new_pids, centers, depth))
        for npid in new_pids:
            self._maybe_enqueue_split(npid, depth + 1)

    def _merge(self, pid: int) -> None:
        if not self.controller.exists(pid) or not self.config.rebalance or not self.config.merge:
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        if len(live) >= self.config.merge_limit or len(self.centroid_index) <= 1:
            self.stats.background_io_us += io
            return
        centroid = self.centroid_index.centroid(pid).copy()
        near = [int(p) for p in self.centroid_index.search(centroid, 2) if int(p) != pid]
        if not near:
            self.stats.background_io_us += io
            return
        target = near[0]
        # delete the shorter posting + its centroid, append its vectors (§3.2)
        self.centroid_index.remove(pid)
        self.controller.delete(pid)
        if len(live):
            io += self.controller.append(target, live)
        self.stats.merges += 1
        self.stats.background_io_us += io
        # Reassign check for moved vectors only — no neighbor check (§4.2.1)
        if self.config.reassign and len(live):
            self.stats.reassign_evaluated += len(live)
            self._apply_moves(self._plan_moves(live, np.full(len(live), target)), depth=0)
        self._maybe_enqueue_split(target, 1)

    def _reassign(
        self,
        old_centroid: np.ndarray,
        new_pids: tuple[int, int],
        new_centroids: np.ndarray,
        depth: int,
    ) -> None:
        cfg = self.config
        self.stats.reassign_jobs += 1
        candidates: list[Posting] = []
        cand_from: list[np.ndarray] = []
        # 1) vectors in the two split postings — necessary condition 1
        split_alive = [p for p in new_pids if self.controller.exists(p)]
        postings, io = self.controller.get_many(split_alive)
        for pid, posting in postings.items():
            live = self._live(posting)
            if not len(live):
                continue
            self.stats.reassign_evaluated += len(live)
            mask = condition_one(live.vecs, old_centroid, new_centroids)
            if mask.any():
                sel = live.take(np.flatnonzero(mask))
                candidates.append(sel)
                cand_from.append(np.full(len(sel), pid, dtype=np.int64))
        # 2) vectors in nearby postings — necessary condition 2
        if cfg.reassign_range > 0 and len(self.centroid_index) > len(split_alive):
            nbr = [
                int(p)
                for p in self.centroid_index.search(old_centroid, cfg.reassign_range + len(new_pids))
                if int(p) not in new_pids
            ][: cfg.reassign_range]
            nbr = [p for p in nbr if self.controller.exists(p)]
            nbr_postings, io2 = self.controller.get_many(nbr)
            io += io2
            for pid, posting in nbr_postings.items():
                live = self._live(posting)
                if not len(live):
                    continue
                self.stats.reassign_evaluated += len(live)
                mask = condition_two(live.vecs, old_centroid, new_centroids)
                if mask.any():
                    sel = live.take(np.flatnonzero(mask))
                    candidates.append(sel)
                    cand_from.append(np.full(len(sel), pid, dtype=np.int64))
        self.stats.background_io_us += io
        if not candidates:
            return
        allc = Posting.concat(candidates)
        from_pid = np.concatenate(cand_from)
        # dedupe vids across postings (replicas): first occurrence wins
        _, first = np.unique(allc.vids, return_index=True)
        order = np.sort(first)
        allc, from_pid = allc.take(order), from_pid[order]
        self.stats.background_cpu_us += self.latency.scan_us(len(allc), cfg.dim)
        self._apply_moves(self._plan_moves(allc, from_pid), depth)

    def _plan_moves(
        self, cands: Posting, from_pid: np.ndarray
    ) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Final NPA check + CAS (§3.3) for reassign candidates.

        ``from_pid[i]`` is the posting candidate ``i`` was read from. All
        candidates are navigated at once (:meth:`_closure_pids`); then, in
        candidate order, one whose nearest closure posting is ``from_pid``
        is a false positive and stays, and every other one bumps its
        version by CAS: a failed CAS (a newer version exists) aborts the
        move. Returns the planned moves as (vid, new version, vector,
        target pids).
        """
        moves = []
        rows = zip(
            cands.vids.tolist(), cands.versions.tolist(), cands.vecs,
            from_pid.tolist(), self._closure_pids(cands.vecs),
        )
        for vid, version, vec, src, target_pids in rows:
            if len(target_pids) == 0 or int(target_pids[0]) == src:
                continue  # false positive: already NPA-compliant
            new_version = self.version_map.bump_cas(vid, version)
            if new_version is None:
                self.stats.reassign_aborted_cas += 1
                continue
            self.stats.reassign_moved += 1
            moves.append((vid, new_version, vec, target_pids))
        return moves

    def _apply_moves(
        self, moves: list[tuple[int, int, np.ndarray, np.ndarray]], depth: int
    ) -> None:
        """Batch the planned moves into one append per target posting —
        the Local Rebuilder amortizes the last-block RMW across all
        vectors landing in the same posting (§4.2.2)."""
        per_pid: dict[int, list[tuple[int, int, np.ndarray]]] = {}
        for vid, ver, vec, target_pids in moves:
            for pid in target_pids:
                per_pid.setdefault(int(pid), []).append((vid, ver, vec))
        io = 0.0
        for pid, items in per_pid.items():
            if not self.controller.exists(pid):
                continue  # posting deleted concurrently → replica skipped
            tail = Posting(
                np.asarray([v for v, _, _ in items], dtype=np.int64),
                np.asarray([ver for _, ver, _ in items], dtype=np.int16),
                np.stack([vec for _, _, vec in items]).astype(np.float32),
            )
            io += self.controller.append(pid, tail)
            self._maybe_enqueue_split(pid, depth + 1)
        self.stats.background_io_us += io

    # ------------------------------------------------------------------
    # Introspection / resource model
    # ------------------------------------------------------------------
    def live_posting_length(self, pid: int) -> int:
        posting, _ = self.controller.get(pid)
        return len(self._live(posting))

    def posting_lengths(self) -> dict[int, int]:
        """On-disk tuple counts per posting (incl. stale replicas)."""
        return {pid: self.controller.length(pid) for pid in self.controller.posting_ids}

    def memory_bytes(self) -> int:
        """Modelled DRAM: centroid index + version map + block mapping."""
        return (
            self.centroid_index.memory_bytes()
            + self.version_map.memory_bytes()
            + self.controller.memory_bytes()
        )

    def live_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """All live (vid, vector) pairs — ground-truth and rebuild input."""
        vids = np.asarray(sorted(self._vecs), dtype=np.int64)
        vecs = (
            np.stack([self._vecs[int(v)] for v in vids])
            if len(vids)
            else np.empty((0, self.config.dim), np.float32)
        )
        return vids, vecs
