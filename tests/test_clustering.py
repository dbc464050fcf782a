"""Tests for balanced clustering and SPANN closure assignment (§3.1, §4.2.1)."""
import numpy as np
import pytest

from repro.core.clustering import (
    balanced_two_means,
    closure_assign,
    hierarchical_balanced_clustering,
)
from repro.core.distances import pairwise_sq_l2


def per_row_closure_assign(
    vecs: np.ndarray, centroids: np.ndarray, *, max_replicas: int = 4, eps: float = 0.1
) -> list[np.ndarray]:
    """The per-row closure loop that ``closure_assign`` vectorised: the
    reference its output must equal exactly."""
    d = pairwise_sq_l2(vecs, centroids)
    k = min(max_replicas, d.shape[1])
    part = np.argpartition(d, k - 1, axis=1)[:, :k] if k < d.shape[1] else np.tile(
        np.arange(d.shape[1]), (len(vecs), 1)
    )
    out: list[np.ndarray] = []
    thresh_ratio = (1.0 + eps) ** 2
    for i in range(len(vecs)):
        cand = part[i]
        dist = d[i, cand]
        order = np.lexsort((cand, dist))
        cand, dist = cand[order], dist[order]
        keep = dist <= thresh_ratio * dist[0] + 1e-12
        out.append(cand[keep])
    return out


def blobs(n: int, dim: int = 4, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.random((4, dim)) * 100
    return centers[rng.integers(0, 4, n)] + rng.normal(0, 2, (n, dim))


class TestBalancedTwoMeans:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 501])
    def test_balance_bound(self, n):
        centers, labels = balanced_two_means(blobs(n), seed=1)
        counts = np.bincount(labels, minlength=2)
        assert counts.max() <= int(np.ceil(n * 0.6))
        assert counts.min() >= 1

    def test_centroids_are_cluster_means(self):
        x = blobs(200)
        centers, labels = balanced_two_means(x, seed=2)
        for c in (0, 1):
            np.testing.assert_allclose(centers[c], x[labels == c].mean(axis=0), rtol=1e-6)

    def test_separable_data_split_on_gap(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (50, 3))
        b = rng.normal(100, 1, (50, 3))
        x = np.vstack([a, b])
        _, labels = balanced_two_means(x, seed=0)
        # the two natural clusters end up in different halves
        assert len(set(labels[:50])) == 1 and len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_identical_points_still_split(self):
        x = np.ones((10, 3))
        _, labels = balanced_two_means(x, seed=0)
        assert set(np.bincount(labels, minlength=2)) <= {4, 5, 6}

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            balanced_two_means(np.ones((1, 3)))

    def test_deterministic_in_seed(self):
        x = blobs(100, seed=5)
        c1, l1 = balanced_two_means(x, seed=7)
        c2, l2 = balanced_two_means(x, seed=7)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(c1, c2)


class TestHierarchicalBalancedClustering:
    @pytest.mark.parametrize("n,max_size", [(100, 10), (500, 32), (1000, 50), (37, 5)])
    def test_leaf_size_bound(self, n, max_size):
        x = blobs(n, seed=n)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=max_size)
        counts = np.bincount(labels)
        assert counts.max() <= max_size
        assert counts.sum() == n

    def test_every_point_labelled(self):
        x = blobs(300)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=20)
        assert labels.min() >= 0 and labels.max() == len(centroids) - 1

    def test_centroid_count_reasonable(self):
        # balance ⇒ #leaves within a small factor of n / max_size
        x = blobs(1000, seed=9)
        centroids, _ = hierarchical_balanced_clustering(x, max_size=50)
        assert 1000 // 50 <= len(centroids) <= 4 * (1000 // 50)

    def test_centroids_are_leaf_means(self):
        x = blobs(200, seed=11)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=25)
        for j in range(len(centroids)):
            np.testing.assert_allclose(centroids[j], x[labels == j].mean(axis=0), rtol=1e-6)

    def test_small_input_single_leaf(self):
        x = blobs(5)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=10)
        assert len(centroids) == 1 and (labels == 0).all()


class TestClosureAssign:
    def test_nearest_centroid_always_first(self):
        rng = np.random.default_rng(0)
        vecs, cents = rng.random((50, 8)), rng.random((10, 8))
        assign = closure_assign(vecs, cents, max_replicas=4, eps=0.2)
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            assert a[0] == d[i].argmin()

    def test_eps_zero_single_assignment(self):
        rng = np.random.default_rng(1)
        vecs, cents = rng.random((50, 8)), rng.random((10, 8))
        assign = closure_assign(vecs, cents, max_replicas=8, eps=0.0)
        assert all(len(a) == 1 for a in assign)

    def test_replica_cap_respected(self):
        vecs = np.zeros((5, 4))
        cents = np.zeros((10, 4))  # all equidistant (0) → everything qualifies
        assign = closure_assign(vecs, cents, max_replicas=3, eps=1.0)
        assert all(len(a) == 3 for a in assign)

    def test_all_replicas_within_eps_ratio(self):
        rng = np.random.default_rng(2)
        vecs, cents = rng.random((100, 8)), rng.random((20, 8))
        eps = 0.15
        assign = closure_assign(vecs, cents, max_replicas=8, eps=eps)
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            dmin = d[i, a[0]]
            assert (d[i, a] <= (1 + eps) ** 2 * dmin + 1e-9).all()

    def test_assignments_sorted_by_distance(self):
        rng = np.random.default_rng(3)
        vecs, cents = rng.random((30, 8)), rng.random((15, 8))
        assign = closure_assign(vecs, cents, max_replicas=5, eps=0.5)
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            dist = d[i, a]
            assert (np.diff(dist) >= -1e-12).all()


class TestClosureAssignMatchesPerRowLoop:
    @staticmethod
    def assert_same(vecs, cents, **kw):
        got = closure_assign(vecs, cents, **kw)
        expect = per_row_closure_assign(vecs, cents, **kw)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("max_replicas", [1, 3, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_random(self, max_replicas, eps):
        rng = np.random.default_rng(4)
        vecs, cents = rng.random((200, 8)), rng.random((12, 8))
        self.assert_same(vecs, cents, max_replicas=max_replicas, eps=eps)

    @pytest.mark.parametrize("max_replicas", [2, 4, 6])
    def test_exact_ties_from_duplicate_centroids(self, max_replicas):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 3, (4, 4)).astype(np.float64)
        cents = base[[0, 1, 0, 2, 1, 3, 0]]  # each of 0 and 1 repeated
        vecs = np.vstack([base, rng.integers(0, 3, (60, 4)).astype(np.float64)])
        for eps in (0.0, 0.3):
            self.assert_same(vecs, cents, max_replicas=max_replicas, eps=eps)

    @pytest.mark.parametrize("max_replicas", [5, 6, 50])
    def test_replica_cap_at_or_above_centroid_count(self, max_replicas):
        rng = np.random.default_rng(6)
        self.assert_same(rng.random((30, 4)), rng.random((5, 4)), max_replicas=max_replicas, eps=2.0)

    def test_one_row(self):
        rng = np.random.default_rng(7)
        self.assert_same(rng.random((1, 4)), rng.random((9, 4)), max_replicas=4, eps=0.2)

    def test_zero_rows(self):
        cents = np.random.default_rng(8).random((9, 4))
        assert closure_assign(np.empty((0, 4)), cents, max_replicas=4, eps=0.2) == []
