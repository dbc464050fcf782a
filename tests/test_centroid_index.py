"""Tests for the centroid navigator (SPTAG stand-in, §3.1/§4.1)."""
import numpy as np
import pytest

from repro.core.centroid_index import CentroidIndex, GraphCentroidIndex
from repro.core.distances import pairwise_sq_l2


def rand_vecs(n, dim=8, seed=0):
    return np.random.default_rng(seed).random((n, dim)) * 100


class TestExactCentroidIndex:
    def test_add_returns_sequential_ids(self):
        idx = CentroidIndex(4)
        assert [idx.add(np.full(4, i)) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_ids_never_reused_after_remove(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        assert idx.add(np.ones(4)) == 1

    def test_len_counts_alive(self):
        idx = CentroidIndex(4)
        for i in range(5):
            idx.add(np.full(4, i))
        idx.remove(2)
        assert len(idx) == 4
        assert 2 not in idx and 3 in idx

    def test_remove_twice_raises(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        with pytest.raises(KeyError):
            idx.remove(0)

    def test_centroid_of_removed_raises(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        with pytest.raises(KeyError):
            idx.centroid(0)

    def test_search_exact(self):
        vecs = rand_vecs(50)
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        q = rand_vecs(1, seed=9)[0]
        got = idx.search(q, 5)
        d = pairwise_sq_l2(q[None, :], vecs)[0]
        expect = np.argsort(d, kind="stable")[:5]
        np.testing.assert_array_equal(got, expect)

    def test_search_skips_removed(self):
        vecs = rand_vecs(10)
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        q = vecs[3]
        assert idx.search(q, 1)[0] == 3
        idx.remove(3)
        assert idx.search(q, 1)[0] != 3

    def test_search_batch_matches_single(self):
        vecs = rand_vecs(30)
        # duplicate centroids: exact distance ties, ordered by id
        vecs[[11, 17, 25]] = vecs[4]
        vecs[20] = vecs[9]
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        for pid in (2, 17, 29):
            idx.remove(pid)
        qs = np.vstack([rand_vecs(5, seed=4), vecs[[4, 9]]])
        for k in (1, 3, 8, 40):  # 40 > the 27 alive centroids
            batch, dist = idx.search_batch(qs, k)
            assert batch.shape == dist.shape == (len(qs), min(k, len(idx)))
            for i, q in enumerate(qs):
                np.testing.assert_array_equal(batch[i], idx.search(q, k))
                assert not set(batch[i]) & {2, 17, 29}
                keys = list(zip(dist[i], batch[i]))
                assert keys == sorted(keys)
                np.testing.assert_allclose(dist[i], pairwise_sq_l2(q[None, :], vecs[batch[i]])[0])
            # the query equal to the duplicated centroid lists its copies by id
            assert batch[5][: min(k, 3)].tolist() == [4, 11, 25][: min(k, 3)]

    def test_growth_beyond_capacity(self):
        idx = CentroidIndex(4, capacity=2)
        for i in range(40):
            idx.add(np.full(4, i))
        assert len(idx) == 40

    def test_memory_model_grows(self):
        idx = CentroidIndex(16)
        m0 = idx.memory_bytes()
        for i in range(10):
            idx.add(np.zeros(16))
        assert idx.memory_bytes() == m0 + 10 * 16 * 4


class TestGraphCentroidIndex:
    def test_high_recall_vs_exact(self):
        vecs = rand_vecs(300, dim=16, seed=1)
        gidx = GraphCentroidIndex(16, degree=12, ef=48)
        eidx = CentroidIndex(16)
        for v in vecs:
            gidx.add(v)
            eidx.add(v)
        qs = rand_vecs(30, dim=16, seed=2)
        hits = 0
        for q in qs:
            got = set(gidx.search(q, 8).tolist())
            expect = set(eidx.search(q, 8).tolist())
            hits += len(got & expect)
        assert hits / (30 * 8) >= 0.9  # navigable-graph recall target

    def test_incremental_insert_searchable(self):
        gidx = GraphCentroidIndex(8, degree=6, ef=16)
        vecs = rand_vecs(50, seed=3)
        for v in vecs:
            gidx.add(v)
        pid = gidx.add(np.full(8, 1234.0))
        assert gidx.search(np.full(8, 1234.0), 1)[0] == pid

    def test_lazy_delete_excluded_from_results(self):
        gidx = GraphCentroidIndex(8, degree=6, ef=16)
        vecs = rand_vecs(30, seed=4)
        for v in vecs:
            gidx.add(v)
        target = gidx.search(vecs[7], 1)[0]
        gidx.remove(int(target))
        assert target not in gidx.search(vecs[7], 5)

    def test_degree_bounded(self):
        gidx = GraphCentroidIndex(8, degree=4, ef=16)
        for v in rand_vecs(100, seed=5):
            gidx.add(v)
        assert max(len(n) for n in gidx._nbrs) <= 2 * 4

    def test_search_batch_matches_single_with_distances(self):
        vecs = rand_vecs(60, seed=7)
        gidx = GraphCentroidIndex(8, degree=6, ef=16)
        for v in vecs:
            gidx.add(v)
        for pid in range(0, 60, 3):
            gidx.remove(pid)
        qs = rand_vecs(10, seed=8)
        ids, dist = gidx.search_batch(qs, 5)
        for i, q in enumerate(qs):
            np.testing.assert_array_equal(ids[i], gidx.search(q, 5))
            np.testing.assert_allclose(dist[i], pairwise_sq_l2(q[None, :], vecs[ids[i]])[0])

    def test_memory_includes_edges(self):
        gidx = GraphCentroidIndex(8, degree=4, ef=16)
        for v in rand_vecs(20, seed=6):
            gidx.add(v)
        assert gidx.memory_bytes() > CentroidIndex.memory_bytes(gidx)
