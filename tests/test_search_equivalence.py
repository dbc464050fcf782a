"""The flat Searcher scan against the per-posting Searcher it replaced.

``per_posting_search`` is the former body of ``SPFreshIndex.search``: one
staleness filter, replica dedupe and distance call per probed posting. The
flat scan must return the same ids and charge the simulated model exactly
as it did: same per-query µs, same SSD counters, same foreground I/O, and
the same merge jobs queued in the same order.
"""
import copy

import numpy as np
import pytest

from repro.blockstore.controller import Posting
from repro.core.distances import pairwise_sq_l2, topk_indices
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.workloads import make_workload


def per_posting_search(index: SPFreshIndex, q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    q = np.asarray(q, dtype=np.float64)
    pids = index.centroid_index.search(q, index.config.nprobe)
    postings, io = index.controller.get_many([int(p) for p in pids])
    index.stats.foreground_io_us += io
    scanned = 0
    all_vids: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    for pid, posting in postings.items():
        scanned += len(posting)
        live = index._live(posting)
        if not len(live):
            continue
        d = pairwise_sq_l2(q[None, :], live.vecs)[0]
        all_vids.append(live.vids)
        all_d.append(d)
        if (
            index.config.rebalance
            and index.config.merge
            and len(live) < index.config.merge_limit
            and len(index.centroid_index) > 1
            and ("merge", pid) not in index._pending
        ):
            index._pending.add(("merge", pid))
            index.jobs.append(("merge", pid))
    lat = index.latency.search_us(
        n_centroids_compared=len(index.centroid_index),
        vectors_scanned=scanned,
        dim=index.config.dim,
        io_us=io,
    )
    if not all_vids:
        return np.empty(0, dtype=np.int64), lat
    vids = np.concatenate(all_vids)
    d = np.concatenate(all_d)
    order = np.lexsort((vids, d))
    vids, d = vids[order], d[order]
    _, first = np.unique(vids, return_index=True)
    vids, d = vids[first], d[first]
    return vids[topk_indices(d, k)], lat


def posting_shapes(index: SPFreshIndex) -> dict[str, int]:
    """How many postings hold each condition the Searcher must handle."""
    out = dict(stale=0, duplicate_live=0, empty=0, undersized=0, zero_live=0)
    for pid in index.controller.posting_ids:
        posting, _ = index.controller.get(pid)
        if not len(posting):
            out["empty"] += 1
            continue
        stale = index.version_map.is_stale(posting.vids, posting.versions)
        live_vids = posting.vids[~stale]
        n_live = len(np.unique(live_vids))
        out["stale"] += bool(stale.any())
        out["duplicate_live"] += len(live_vids) > n_live
        out["zero_live"] += n_live == 0
        out["undersized"] += 0 < n_live < index.config.merge_limit
    return out


@pytest.fixture(scope="module")
def churned():
    """A spacev index after splits, reassigns and merges, then un-drained
    deletes, so its postings hold stale and duplicate replicas."""
    wl = make_workload("spacev", n_base=3000, dim=16, n_clusters=16, n_epochs=6, rate=0.03, n_queries=64, seed=3)
    cfg = SPFreshConfig(dim=16, split_limit=48, merge_limit=12, reassign_range=4, nprobe=8, seed=0)
    index = SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg)
    for epoch in wl.epochs:
        for vid in epoch.delete_vids:
            index.delete(int(vid))
        index.insert_batch(epoch.insert_vids, epoch.insert_vecs)
        for q in wl.query_vecs[:16]:  # queues merges for undersized postings
            per_posting_search(index, q, 10)
        index.process_jobs()
    assert index.stats.splits and index.stats.merges and index.stats.reassign_moved
    live_vids, live_vecs = index.live_vectors()
    for vid in live_vids[::7]:
        index.delete(int(vid))
    # one posting emptied on disk, one whose every tuple is deleted, and an
    # undersized one padded with copies of its own live tuples, which only
    # the per-posting replica dedupe keeps under the merge limit
    pids = index.controller.posting_ids
    index.controller.put(pids[0], Posting.empty(cfg.dim))
    for vid in index._live(index.controller.get(pids[1])[0]).vids:
        index.delete(int(vid))
    for pid in pids[2:]:
        live = index._live(index.controller.get(pid)[0])
        if 0 < len(live) < cfg.merge_limit:
            break
    index.controller.append(pid, Posting.concat([live] * -(-cfg.merge_limit // len(live))))
    shapes = posting_shapes(index)
    assert all(shapes.values()), shapes
    queries = np.vstack([wl.query_vecs, live_vecs[::97], index.centroid_index.centroids(pids[:2] + [pid])])
    return index, queries


def run_both(index: SPFreshIndex, queries: np.ndarray, k: int):
    old, new, batched = (copy.deepcopy(index) for _ in range(3))
    old_out = [per_posting_search(old, q, k) for q in queries]
    new_out = [new.search(q, k) for q in queries]
    batch_ids, batch_lat = batched.search_batch(queries, k)
    return old, old_out, new, new_out, batched, batch_ids, batch_lat


def assert_same_state(a: SPFreshIndex, b: SPFreshIndex) -> None:
    assert a.ssd.counters == b.ssd.counters
    assert a.stats.foreground_io_us == b.stats.foreground_io_us
    assert a.stats == b.stats
    assert list(a.jobs) == list(b.jobs)
    assert a._pending == b._pending


@pytest.mark.parametrize("k", [10, 1000])
@pytest.mark.parametrize("nprobe", [8, None])
def test_flat_scan_matches_per_posting_scan(churned, k, nprobe):
    index, queries = churned
    index = copy.deepcopy(index)
    if nprobe is None:  # probe more postings than the index holds
        nprobe, queries = len(index.centroid_index) + 5, queries[::4]
    index.config.nprobe = nprobe
    assert not index.jobs
    old, old_out, new, new_out, batched, batch_ids, batch_lat = run_both(index, queries, k)
    for (old_ids, old_lat), (new_ids, new_lat), ids, lat in zip(old_out, new_out, batch_ids, batch_lat):
        np.testing.assert_array_equal(new_ids, old_ids)
        np.testing.assert_array_equal(ids, old_ids)
        assert new_lat == old_lat and lat == old_lat
    assert old.jobs, "the searches should queue merges for undersized postings"
    assert_same_state(new, old)
    assert_same_state(batched, old)


def test_flat_scan_on_single_posting_index():
    """A one-posting index never queues a merge."""
    rng = np.random.default_rng(5)
    vecs = rng.random((20, 4)).astype(np.float32)
    cfg = SPFreshConfig(dim=4, split_limit=48, merge_limit=40, nprobe=4)
    index = SPFreshIndex.build(vecs, np.arange(20), cfg)
    assert len(index.centroid_index) == 1
    index.delete(3)
    old, old_out, new, new_out, *_ = run_both(index, vecs[:5], 5)
    for (old_ids, old_lat), (new_ids, new_lat) in zip(old_out, new_out):
        np.testing.assert_array_equal(new_ids, old_ids)
        assert new_lat == old_lat
    assert not new.jobs
    assert_same_state(new, old)
