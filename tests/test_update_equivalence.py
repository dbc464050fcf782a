"""The batched Updater and reassign planning against the per-vector ones
they replaced.

``PerVectorIndex`` keeps the former bodies of ``SPFreshIndex.insert``,
``insert_batch`` and ``_plan_reassign_one``: one centroid search and one
closure assignment per inserted vector and per reassign candidate, with
the closure cut by the per-row reference loop. Driven through the same
churned stream (splits, cascades, merges with their merge-path reassign
check), the batched engine must leave the same postings, version map,
counters, job queue and per-insert simulated latencies.
"""
import copy

import numpy as np
import pytest

from repro.blockstore.controller import Posting
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.workloads import make_workload
from tests.test_clustering import per_row_closure_assign


class PerVectorIndex(SPFreshIndex):
    """SPFresh with one navigation and one closure per vector placed."""

    merge_reassign_evaluated = 0  # candidates the merge path checked

    def _closure_pids_one(self, vec: np.ndarray) -> np.ndarray:
        cand = self.centroid_index.search(vec, self.config.max_replicas)
        cents = self.centroid_index.centroids(cand)
        keep = per_row_closure_assign(
            vec[None, :], cents, max_replicas=self.config.max_replicas, eps=self.config.closure_eps
        )[0]
        return cand[keep]

    def insert(self, vid: int, vec: np.ndarray) -> float:
        vec = np.asarray(vec, dtype=np.float32)
        self.version_map.add(vid)
        self._vecs[vid] = vec
        pids = self._closure_pids_one(vec.astype(np.float64))
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
        return np.asarray([self.insert(int(v), x) for v, x in zip(vids, vecs)])

    def _plan_moves(self, cands: Posting, from_pid: np.ndarray) -> list:
        return [
            m
            for i in range(len(cands))
            if (
                m := self._plan_reassign_one(
                    int(cands.vids[i]), int(cands.versions[i]), cands.vecs[i], int(from_pid[i])
                )
            )
            is not None
        ]

    def _plan_reassign_one(self, vid, version, vec, current_pid):
        target_pids = self._closure_pids_one(np.asarray(vec, dtype=np.float64))
        if len(target_pids) == 0 or int(target_pids[0]) == current_pid:
            return None
        new_version = self.version_map.bump_cas(vid, version)
        if new_version is None:
            self.stats.reassign_aborted_cas += 1
            return None
        self.stats.reassign_moved += 1
        return vid, new_version, vec, target_pids

    def _merge(self, pid: int) -> None:
        before = self.stats.reassign_evaluated
        super()._merge(pid)
        self.merge_reassign_evaluated += self.stats.reassign_evaluated - before


def posting_contents(index: SPFreshIndex) -> dict:
    """pid → (vids, versions, vecs), read from a copy so that the reads
    leave the compared SSD counters alone."""
    controller = copy.deepcopy(index.controller)
    out = {}
    for pid in controller.posting_ids:
        p, _ = controller.get(pid)
        out[pid] = (p.vids.tolist(), p.versions.tolist(), p.vecs.tobytes())
    return out


def job_keys(index: SPFreshIndex) -> list[tuple]:
    return [
        tuple(np.asarray(x).tolist() if isinstance(x, np.ndarray) else x for x in job)
        for job in index.jobs
    ]


def assert_same_state(new: SPFreshIndex, old: SPFreshIndex) -> None:
    assert new.ssd.counters == old.ssd.counters
    assert new.stats == old.stats
    assert job_keys(new) == job_keys(old)
    assert new._pending == old._pending
    assert new.version_map._v.tobytes() == old.version_map._v.tobytes()
    assert new.version_map._present.tobytes() == old.version_map._present.tobytes()
    np.testing.assert_array_equal(new.centroid_index.alive_ids, old.centroid_index.alive_ids)
    assert posting_contents(new) == posting_contents(old)


# config overrides and epochs run; the graph navigator is slow in Python,
# and four epochs already cascade and merge under it
CONFIGS = {
    "default": ({}, 8),
    "graph-index": ({"use_graph_index": True}, 4),
    "spann-plus": ({"rebalance": False}, 8),
    "no-reassign": ({"reassign": False}, 8),
}


@pytest.fixture(scope="module")
def stream():
    """A drifting spacev stream that splits, cascades and merges under a
    small split limit."""
    return make_workload(
        "spacev", n_base=2000, dim=16, n_clusters=16, n_epochs=8, rate=0.05, n_queries=64, seed=3
    )


@pytest.mark.parametrize("name", list(CONFIGS))
def test_batched_updates_match_per_vector_updates(stream, name):
    overrides, n_epochs = CONFIGS[name]
    cfg = SPFreshConfig(
        dim=16, split_limit=24, merge_limit=8, reassign_range=4, nprobe=8, seed=0, **overrides
    )
    new = SPFreshIndex.build(stream.base_vecs, stream.base_vids, cfg)
    old = PerVectorIndex.build(stream.base_vecs, stream.base_vids, cfg)
    assert_same_state(new, old)
    for epoch in stream.epochs[:n_epochs]:
        for vid in epoch.delete_vids:
            new.delete(int(vid))
            old.delete(int(vid))
        for lo in range(0, len(epoch.insert_vids), 50):
            vids, vecs = epoch.insert_vids[lo : lo + 50], epoch.insert_vecs[lo : lo + 50]
            np.testing.assert_array_equal(new.insert_batch(vids, vecs), old.insert_batch(vids, vecs))
        assert_same_state(new, old)
        for q in stream.query_vecs[:16]:  # queues merges for undersized postings
            new_ids, new_lat = new.search(q, 10)
            old_ids, old_lat = old.search(q, 10)
            np.testing.assert_array_equal(new_ids, old_ids)
            assert new_lat == old_lat
        new.process_jobs(max_jobs=3)  # leaves reassign jobs queued
        old.process_jobs(max_jobs=3)
        assert_same_state(new, old)
        new.process_jobs()
        old.process_jobs()
        assert_same_state(new, old)
    st = old.stats
    if name == "spann-plus":
        assert st.gc_rewrites and not st.splits
    else:
        assert st.splits and st.max_cascade_depth > 0
    if name in ("default", "graph-index"):
        assert st.merges and st.reassign_moved and old.merge_reassign_evaluated


def test_empty_insert_batch():
    rng = np.random.default_rng(0)
    vecs = rng.random((40, 4)).astype(np.float32)
    index = SPFreshIndex.build(vecs, np.arange(40), SPFreshConfig(dim=4, split_limit=16))
    before = copy.deepcopy(index)
    assert len(index.insert_batch(np.empty(0, np.int64), np.empty((0, 4), np.float32))) == 0
    assert_same_state(index, before)
