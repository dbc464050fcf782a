"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


# --------------------------------------------------------------------------
# Vector datasets for the SPFresh reproduction (SOSP '23).
#
# The paper evaluates on SIFT1B (image vectors, roughly uniform cluster
# mass) and SPACEV1B (text vectors, skewed, and the update stream shifts
# the distribution over time). Neither dataset is available offline, so we
# generate Gaussian-mixture byte vectors whose *shape* matches what drives
# the paper's results: cluster structure, skew of cluster mass, and a
# distribution shift between the base set and the update pool
# (see DESIGN.md §2 for the substitution argument).
# --------------------------------------------------------------------------


def mixture_centers(*, n_clusters: int, dim: int, seed: int, spread: float = 255.0) -> np.ndarray:
    """Cluster centers for a synthetic vector mixture, uniform in [0, spread)."""
    return _rng(seed).random((n_clusters, dim)) * spread


def clustered_vectors(
    *,
    n: int,
    dim: int = 32,
    n_clusters: int = 64,
    seed: int = 0,
    skew: float = 0.0,
    cluster_sigma: float = 12.0,
    centers: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian-mixture vectors, clipped to byte range like SIFT/SPACEV.

    ``skew=0`` gives uniform cluster mass (SIFT-like); ``skew>0`` draws
    cluster mass from a Zipf-ish law (SPACEV-like). Pass explicit
    ``centers``/``weights`` to generate a *shifted* pool from a related but
    different mixture (the paper's "data distribution shifts over time").
    """
    g = _rng(seed)
    if centers is None:
        centers = mixture_centers(n_clusters=n_clusters, dim=dim, seed=seed + 1)
    if weights is None:
        if skew > 0:
            w = 1.0 / np.arange(1, len(centers) + 1) ** skew
        else:
            w = np.ones(len(centers))
        weights = w / w.sum()
    labels = g.choice(len(centers), size=n, p=weights)
    x = centers[labels] + g.normal(0.0, cluster_sigma, (n, centers.shape[1]))
    return np.clip(x, 0, 255).astype(np.float32)


def shifted_weights(base_weights: np.ndarray, *, shift: float, seed: int = 7) -> np.ndarray:
    """Re-weight a mixture to simulate distribution shift in the update pool.

    ``shift`` in [0, 1]: 0 returns ``base_weights``; 1 returns a fully
    re-drawn (permuted + re-skewed) weighting, concentrating update mass on
    clusters that were rare in the base set — exactly the regime where naive
    in-place appends skew posting sizes.
    """
    g = _rng(seed)
    target = base_weights[g.permutation(len(base_weights))]
    w = (1 - shift) * base_weights + shift * target
    return w / w.sum()


def ground_truth_knn(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k indices (into ``base``) per query, by squared L2.

    Each row is sorted by distance, equal distances within it by index.
    Queries go through one GEMM per chunk, sized so the distance block
    stays near 8 MB.
    """
    base = np.asarray(base, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty((len(queries), k), dtype=np.int64)
    bn = (base**2).sum(axis=1)
    chunk = max(1, (8 << 20) // (8 * len(base)))
    for lo in range(0, len(queries), chunk):
        d = queries[lo : lo + chunk] @ base.T
        d *= -2.0
        d += bn  # + |q|^2 is constant per query and left out
        idx = np.sort(np.argpartition(d, k, axis=1)[:, :k], axis=1)
        order = np.argsort(np.take_along_axis(d, idx, axis=1), axis=1, kind="stable")
        out[lo : lo + chunk] = np.take_along_axis(idx, order, axis=1)
    return out


def vectors_df(spark: SparkSession, vecs: np.ndarray, ids: np.ndarray | None = None) -> DataFrame:
    """Wrap a vector matrix as a Spark DataFrame (vid: long, vec: array<float>)."""
    if ids is None:
        ids = np.arange(len(vecs))
    pdf = pd.DataFrame({"vid": ids.astype(np.int64), "vec": [v.astype(np.float32).tolist() for v in vecs]})
    return spark.createDataFrame(pdf)
