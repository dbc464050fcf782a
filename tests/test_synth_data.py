"""Tests for the synthetic data generators (provided TPC-H-lite + the
vector extensions) and an oracle sanity check."""
import numpy as np
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent


class TestTpchLite:
    def test_lineitem_schema_and_scale(self, spark):
        df = synth_data.lineitem(spark, sf=0.001)
        assert df.count() == 6000
        assert "l_orderkey" in df.columns and "l_shipdate" in df.columns

    def test_orders_keys_dense(self, spark):
        df = synth_data.orders(spark, sf=0.001).toPandas()
        assert df["o_orderkey"].min() == 1 and df["o_orderkey"].max() == len(df)

    def test_oracle_agg_roundtrip(self, spark):
        """Exercise the provided DuckDB oracle on a provided generator."""
        li = synth_data.lineitem(spark, sf=0.001)
        got = li.groupBy("l_returnflag").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got,
            "SELECT l_returnflag, count(*) AS n FROM li GROUP BY l_returnflag",
            li=li,
        )

    def test_deterministic_in_seed(self, spark):
        a = synth_data.customer(spark, sf=0.001, seed=2).toPandas()
        b = synth_data.customer(spark, sf=0.001, seed=2).toPandas()
        assert a.equals(b)


class TestVectorGenerators:
    def test_clustered_vectors_shape_and_dtype(self):
        v = synth_data.clustered_vectors(n=100, dim=16, n_clusters=4, seed=0)
        assert v.shape == (100, 16) and v.dtype == np.float32

    def test_byte_range(self):
        v = synth_data.clustered_vectors(n=500, dim=8, seed=1)
        assert v.min() >= 0 and v.max() <= 255

    def test_skew_concentrates_mass(self):
        centers = synth_data.mixture_centers(n_clusters=16, dim=8, seed=3)
        skewed = synth_data.clustered_vectors(
            n=2000, dim=8, seed=2, centers=centers, weights=None, skew=2.0
        )
        uniform = synth_data.clustered_vectors(
            n=2000, dim=8, seed=2, centers=centers, weights=np.ones(16) / 16
        )
        from repro.core.distances import pairwise_sq_l2

        lab_s = pairwise_sq_l2(skewed, centers).argmin(axis=1)
        lab_u = pairwise_sq_l2(uniform, centers).argmin(axis=1)
        top_s = np.bincount(lab_s, minlength=16).max() / 2000
        top_u = np.bincount(lab_u, minlength=16).max() / 2000
        assert top_s > 2 * top_u

    def test_shifted_weights_properties(self):
        w = np.array([0.5, 0.3, 0.2])
        s0 = synth_data.shifted_weights(w, shift=0.0)
        np.testing.assert_allclose(s0, w)
        s1 = synth_data.shifted_weights(w, shift=1.0)
        assert s1.sum() == pytest.approx(1.0)
        assert sorted(np.round(s1, 6)) == sorted(np.round(w, 6))  # a permutation blend

    def test_ground_truth_is_exact(self):
        # multiples of 1/64: every distance is exact, whatever the summation order
        rng = np.random.default_rng(0)
        base = (rng.integers(0, 256, (20_000, 8)) / 64).astype(np.float32)  # two GEMM chunks
        base[19_000] = base[40]  # a duplicated base vector ties with its twin
        qs = (rng.integers(0, 256, (70, 8)) / 64).astype(np.float32)
        qs[3] = base[40]
        gt = synth_data.ground_truth_knn(base, qs, 5)
        assert gt.shape == (70, 5)
        b64 = base.astype(np.float64)
        for i, q in enumerate(qs.astype(np.float64)):
            d = ((b64 - q) ** 2).sum(axis=1)
            expect = np.argsort(d, kind="stable")[:5]  # by distance, ties by index
            np.testing.assert_array_equal(gt[i], expect)
        assert list(gt[3][:2]) == [40, 19_000]

    def test_vectors_df_roundtrip(self, spark):
        v = synth_data.clustered_vectors(n=20, dim=4, seed=5)
        df = synth_data.vectors_df(spark, v)
        pdf = df.toPandas().sort_values("vid")
        back = np.stack(pdf["vec"].map(np.asarray)).astype(np.float32)
        np.testing.assert_allclose(back, v, rtol=1e-6)
