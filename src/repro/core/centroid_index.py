"""In-memory centroid navigator — the paper's SPTAG stand-in.

SPFresh keeps the centroid of every posting in an in-memory SPTAG graph
index for fast candidate-posting identification, updated when splits and
merges change the centroid set. Two implementations:

- :class:`CentroidIndex`: exact brute-force top-k over the alive
  centroids. At reproduction scale (≤ a few thousand postings) this is
  both exact and fast, so it is the default (DESIGN.md §2 substitution).
- :class:`GraphCentroidIndex`: a navigable k-NN-graph (single-layer
  HNSW-style best-first search with bidirectional links and degree
  pruning) that exercises the approximate-navigation code path and
  supports incremental insert/lazy delete like SPTAG.

Both support stable integer posting ids, incremental ``add``/``remove``,
and batched search.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.distances import pairwise_sq_l2, sort_candidates, topk_indices


class CentroidIndex:
    """Exact centroid index with stable ids and a DRAM model."""

    def __init__(self, dim: int, capacity: int = 1024):
        self.dim = dim
        self._vecs = np.zeros((capacity, dim), dtype=np.float64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._n = 0  # high-water mark; ids are never reused

    # -- maintenance ------------------------------------------------------
    def _grow(self) -> None:
        cap = len(self._vecs)
        self._vecs = np.vstack([self._vecs, np.zeros((cap, self.dim))])
        self._alive = np.concatenate([self._alive, np.zeros(cap, dtype=bool)])

    def add(self, vec: np.ndarray) -> int:
        """Register a new centroid; returns its fresh posting id."""
        if self._n == len(self._vecs):
            self._grow()
        pid = self._n
        self._vecs[pid] = np.asarray(vec, dtype=np.float64)
        self._alive[pid] = True
        self._n += 1
        return pid

    def remove(self, pid: int) -> None:
        if not self._alive[pid]:
            raise KeyError(f"posting {pid} not alive")
        self._alive[pid] = False

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return int(self._alive.sum())

    def __contains__(self, pid: int) -> bool:
        return 0 <= pid < self._n and bool(self._alive[pid])

    @property
    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    def centroid(self, pid: int) -> np.ndarray:
        if not self._alive[pid]:
            raise KeyError(f"posting {pid} not alive")
        return self._vecs[pid]

    def centroids(self, pids: np.ndarray) -> np.ndarray:
        return self._vecs[np.asarray(pids, dtype=np.int64)]

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        """Top-k alive posting ids by distance to ``q`` (nearest first)."""
        alive = self.alive_ids
        d = pairwise_sq_l2(np.asarray(q)[None, :], self._vecs[alive])[0]
        return alive[topk_indices(d, k)]

    def search_batch(self, qs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(m, k) alive posting ids per query row, nearest first, ties by
        id, and their (m, k) squared distances.

        Row for row the same ids as :meth:`search`: :func:`topk_indices`
        on every row at once (a row-wise ``argpartition``, then a sort on
        (distance, index)).
        """
        alive = self.alive_ids
        d = pairwise_sq_l2(qs, self._vecs[alive])
        k = min(k, len(alive))
        idx = (
            np.argpartition(d, k, axis=1)[:, :k]
            if k < len(alive)
            else np.broadcast_to(np.arange(k), d.shape)
        )
        idx, dist = sort_candidates(d, idx)
        return alive[idx], dist

    def memory_bytes(self) -> int:
        """Modelled DRAM: one float32 vector per ever-created centroid."""
        return self._n * self.dim * 4


class GraphCentroidIndex(CentroidIndex):
    """Navigable k-NN graph over centroids (best-first search).

    ``add`` connects a new node bidirectionally to the top-``degree``
    results of a best-first search (ef candidates); neighbor lists are
    pruned back to ``degree`` by distance. ``remove`` is a lazy delete:
    dead nodes still route but are excluded from results, like SPTAG's
    tombstoned centroids before index refresh.
    """

    def __init__(self, dim: int, capacity: int = 1024, degree: int = 12, ef: int = 32):
        super().__init__(dim, capacity)
        self.degree = degree
        self.ef = ef
        self._nbrs: list[list[int]] = []
        self._entry: int | None = None

    def add(self, vec: np.ndarray) -> int:
        pid = super().add(vec)
        self._nbrs.append([])
        if self._entry is None or not self._alive[self._entry]:
            self._entry = pid
            return pid
        cand = self._search_graph(self._vecs[pid], self.ef, include_dead=True)
        links = [c for _, c in cand[: self.degree] if c != pid]
        self._nbrs[pid] = links
        for c in links:
            if pid not in self._nbrs[c]:
                self._nbrs[c].append(pid)
                if len(self._nbrs[c]) > 2 * self.degree:
                    self._prune(c)
        return pid

    def _prune(self, node: int) -> None:
        nbrs = np.asarray(self._nbrs[node], dtype=np.int64)
        d = pairwise_sq_l2(self._vecs[node][None, :], self._vecs[nbrs])[0]
        self._nbrs[node] = nbrs[topk_indices(d, self.degree)].tolist()

    def _search_graph(
        self, q: np.ndarray, ef: int, include_dead: bool = False
    ) -> list[tuple[float, int]]:
        """(squared distance, node) of the best ``ef`` nodes reached, nearest
        first, ties by node."""
        if self._entry is None:
            return []
        start = self._entry
        d0 = float(pairwise_sq_l2(q[None, :], self._vecs[start][None, :])[0, 0])
        visited = {start}
        frontier = [(d0, start)]  # min-heap
        best: list[tuple[float, int]] = [(-d0, start)]  # max-heap of ef best
        while frontier:
            d, node = heapq.heappop(frontier)
            if len(best) >= ef and d > -best[0][0]:
                break
            for nb in self._nbrs[node]:
                if nb in visited:
                    continue
                visited.add(nb)
                dn = float(pairwise_sq_l2(q[None, :], self._vecs[nb][None, :])[0, 0])
                if len(best) < ef or dn < -best[0][0]:
                    heapq.heappush(frontier, (dn, nb))
                    heapq.heappush(best, (-dn, nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        found = sorted(((-nd, node) for nd, node in best), key=lambda t: (t[0], t[1]))
        if not include_dead:
            found = [(d, n) for d, n in found if self._alive[n]]
        return found

    def _search_one(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and squared distances of the ``k`` nearest alive nodes."""
        found = self._search_graph(q, max(self.ef, k))[:k]
        if len(found) < min(k, len(self)):
            # graph got disconnected by lazy deletes — exact fallback
            ids, dist = CentroidIndex.search_batch(self, q[None, :], k)
            return ids[0], dist[0]
        return (
            np.asarray([n for _, n in found], dtype=np.int64),
            np.asarray([d for d, _ in found], dtype=np.float64),
        )

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        return self._search_one(np.asarray(q, dtype=np.float64), k)[0]

    def search_batch(self, qs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        rows = [self._search_one(q, k) for q in np.asarray(qs, dtype=np.float64)]
        return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])

    def memory_bytes(self) -> int:
        edges = sum(len(n) for n in self._nbrs)
        return super().memory_bytes() + 4 * edges
