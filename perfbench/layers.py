"""Per-layer metrics of a traced run, assembled from the recorder."""
from __future__ import annotations

from tracing import Recorder

ALL = ("setup", "loop", "check")
LOOP = ("loop",)

# Layers whose work happens (also) while setting up: counted over every
# phase so that they explain ``setup_s``.
SETUP_LAYERS = {
    "make_workload", "ground_truth_knn", "hierarchical_balanced_clustering",
    "balanced_two_means", "spark.build_index",
}

# Spark calls reported as ``.s`` (inclusive wall) and ``.jobs``
_SPARK_CALLS = {
    "spark.build_index", "spark.updater.insert_batch", "spark.rebalance",
    "spark.store.live_sizes", "spark.store.append_rows", "spark.store.write_postings",
    "spark.search",
}

_DERIVED = (
    "search_batch_ms_tail", "sim_search_us_p50", "sim_search_us_tail", "update_ops_per_s",
    "insert_batch_ms_p50", "insert_batch_ms_tail", "rebalance_ms_p50", "rebalance_ms_tail",
)


def _phases(layer: str) -> tuple[str, ...]:
    return ALL if layer in SETUP_LAYERS else LOOP


def per_layer(names: list[str], rec: dict, r: Recorder) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json; 0 where the layer did
    no work on this workload."""
    out = {n: 0.0 for n in names}
    for k in _DERIVED:
        out[k] = float(rec["metrics"].get(k, 0.0))
    checks = rec["checks"]
    out["error_rate"] = checks.failed / max(1, checks.attempted)
    out["trace.overhead_s"] = rec["trace_overhead_s"]
    out["trace.spans"] = float(r.n_spans())
    out.update(rec.get("engine", {}))
    out.update(rec.get("spark_counts", {}))

    for n in names:
        layer, _, kind = n.rpartition(".")
        if not layer:
            continue
        ph = _phases(layer)
        if kind == "calls" and layer in r.probe_names:
            out[n] = r.total("calls", layer, ph)
        elif kind == "self_s" and layer in r.probe_names:
            out[n] = r.total("self_s", layer, ph)
        elif kind == "s" and layer in _SPARK_CALLS:
            out[n] = r.total("incl_s", layer, ph)
        elif kind == "jobs" and layer in _SPARK_CALLS:
            out[n] = r.total("jobs", layer, ph)
    for key in (
        "pairwise_sq_l2.flops", "centroid_index.centroids_compared",
        "controller.get_many.blocks", "controller.append.blocks", "controller.put.blocks",
        "version_map.is_stale.tuples", "balanced_two_means.points", "closure_assign.vectors",
        "condition_one.vectors", "condition_two.vectors", "spark.store.append_rows.rows",
    ):
        out[key] = r.total("work", key, _phases(key.split(".")[0]))

    queries = max(1, rec.get("loop_queries", 0))
    inserts = max(1, rec.get("loop_inserts", 0))
    search_tops = ("spfresh.search_batch", "spark.search")
    insert_tops = ("spfresh.insert_batch", "spark.updater.insert_batch")
    out["pairwise_sq_l2.calls_per_query"] = sum(
        r.calls_by_top[(t, "pairwise_sq_l2")] for t in search_tops) / queries
    out["closure_assign.calls_per_vector"] = sum(
        r.calls_by_top[(t, "closure_assign")] for t in insert_tops) / inserts
    scanned = r.work_by_top[("spfresh.search_batch", "version_map.is_stale.tuples")]
    stale = r.work_by_top[("spfresh.search_batch", "version_map.is_stale.stale")]
    out["search.live_per_scanned"] = (scanned - stale) / scanned if scanned else 0.0
    rounds = out.get("spark.rebalance.rounds", 0.0)
    out["spark.jobs_per_rebalance_round"] = out["spark.rebalance.jobs"] / rounds if rounds else 0.0
    return {n: float(out[n]) for n in names}


def split_check(r: Recorder, layer: dict[str, float], expect: dict) -> tuple[list[str], list[str]]:
    """Whether the workload still exercises the layers it was chosen for.

    Returns (errors, warnings). An error is a probe that was expected to
    run and never did (a renamed or bypassed function), or a metric that
    must stay 0 on this workload and did not. A warning is a counter the
    workload is meant to drive above 0 that stayed 0 for this seed.
    """
    errors = [f"{n}: never called" for n in expect.get("hit", [])
              if r.total("calls", n, ALL) == 0]
    errors += [f"{n} = {layer[n]:g}, must be 0 on this workload"
               for n in expect.get("zero", []) if layer[n] != 0]
    warnings = [f"{n} = 0, expected > 0" for n in expect.get("positive", []) if layer[n] == 0]
    return errors, warnings
