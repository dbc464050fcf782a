"""Core-engine workloads: ``search-uniform`` and ``churn-skewed``.

Both are closed loops with a single client in this process: each call
into ``SPFreshIndex`` waits for the previous one. The amount of work is
fixed by the seed and ``--seconds`` (not by the clock), so the simulated
latencies, recall, space and every engine/SSD counter repeat exactly for
a given seed, while wall times are measured around each call and reported
at the nominal host speed (:class:`common.HostSpeed`).
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from common import Checks, Clock, HostSpeed, K, Samples, digest, median, recall_at_k, tail
from repro import synth_data, workloads
from repro.core import spfresh
from repro.experiments import default_config


@dataclass
class CoreScale:
    n_base: int = 10_000
    dim: int = 32
    n_clusters: int = 64
    nprobe: int = 16
    # search-uniform
    search_inputs: int = 3  # independent inputs per run (see churn_inputs)
    n_queries: int = 4096  # distinct queries, cycled through
    n_recall_queries: int = 1024  # of which these get exact ground truth
    search_batch: int = 64
    search_batches_per_s: float = 11.0
    # churn-skewed (the paper's 1% delete + 1% insert per epoch)
    # Each run sets up and replays this many independent streams, drawn from
    # --seed, with a share of the epochs each. How much drift (and so how
    # many splits) a skewed stream carries depends on its seed: one 30-epoch
    # stream runs at 2000-2900 ops/s by seed alone; the mean of five varies
    # far less between runs.
    churn_inputs: int = 5
    epochs_per_s: float = 7.5
    insert_batch: int = 50
    probe_queries: int = 32
    n_final_queries: int = 256

    def inputs(self, workload: str) -> int:
        return self.search_inputs if workload == "search-uniform" else self.churn_inputs


def _config(s: CoreScale):
    return default_config(s.dim, nprobe=s.nprobe)


def _disk_bytes_per_live(idx, n_live: int) -> float:
    return idx.ssd.blocks_in_use * idx.ssd.block_bytes / max(1, n_live)


def _max_posting(idx) -> int:
    c = idx.controller
    return max((c.length(p) for p in c.posting_ids), default=0)


def _posting_gauges(idx) -> dict:
    lens = np.asarray(list(idx.posting_lengths().values()), dtype=np.float64)
    return {
        "postings.len_p50": float(np.percentile(lens, 50)),
        "postings.len_p99": float(np.percentile(lens, 99)),
        "postings.len_max": float(lens.max()),
    }


# ---------------------------------------------------------------------------
# search-uniform
# ---------------------------------------------------------------------------
def _setup_search(seed: int, s: CoreScale):
    wl = workloads.make_workload(
        "sift", n_base=s.n_base, dim=s.dim, n_clusters=s.n_clusters,
        n_epochs=0, n_queries=s.n_queries, seed=seed,
    )
    idx = spfresh.SPFreshIndex.build(wl.base_vecs, wl.base_vids, _config(s))
    gt = synth_data.ground_truth_knn(wl.base_vecs, wl.query_vecs[: s.n_recall_queries], K)
    return wl, idx, wl.base_vids[gt]


def _loop_search(state, seconds: float, s: CoreScale, checks: Checks, mark, speed) -> dict:
    wl, idx, gt = state
    live = np.ones(s.n_base, dtype=bool)
    clock = Clock(speed)
    n_batches = max(1, round(seconds * s.search_batches_per_s))
    sim: list[float] = []
    first_pass: list[np.ndarray] = []
    ssd0 = idx.ssd.counters.snapshot()
    for b in range(n_batches):
        lo = (b * s.search_batch) % s.n_queries
        ids, lats = clock.time("search", idx.search_batch, wl.query_vecs[lo : lo + s.search_batch], K)
        checks.searches(ids, live, s.n_base)
        if b * s.search_batch < s.n_queries:
            sim.extend(lats)
            first_pass.extend(ids)
    return {
        "clock": clock,
        "n_queries": n_batches * s.search_batch,
        "n_updates": 0,
        "n_inserts": 0,
        "sim_us": sim,
        "recall": recall_at_k(first_pass[: len(gt)], gt),
        "disk": _disk_bytes_per_live(idx, s.n_base),
        "ssd": idx.ssd.counters.delta(ssd0),
        "idx": idx,
        "queue_depth_max": len(idx.jobs),
        "inputs": digest(wl.base_vecs, wl.query_vecs),
    }


# ---------------------------------------------------------------------------
# churn-skewed
# ---------------------------------------------------------------------------
def _n_epochs(seconds: float, s: CoreScale) -> int:
    return max(2, round(seconds * s.epochs_per_s))


def _setup_churn(seed: int, s: CoreScale, seconds: float):
    wl = workloads.make_workload(
        "spacev", n_base=s.n_base, dim=s.dim, n_clusters=s.n_clusters,
        n_epochs=_n_epochs(seconds, s), n_queries=s.n_final_queries, seed=seed,
    )
    return wl, spfresh.SPFreshIndex.build(wl.base_vecs, wl.base_vids, _config(s))


def _delete_all(idx, vids) -> None:
    for v in vids:
        idx.delete(int(v))


def _loop_churn(state, seconds: float, s: CoreScale, checks: Checks, mark, speed) -> dict:
    wl, idx = state
    cfg = idx.config
    n_total = s.n_base + sum(len(e.insert_vids) for e in wl.epochs)
    live = np.zeros(n_total, dtype=bool)
    live[wl.base_vids] = True
    clock = Clock(speed)
    sim: list[float] = []
    queue_max = 0
    n_queries = n_updates = 0
    ssd0 = idx.ssd.counters.snapshot()
    for i, e in enumerate(wl.epochs):
        clock.time("delete", _delete_all, idx, e.delete_vids)
        live[e.delete_vids] = False
        for lo in range(0, len(e.insert_vids), s.insert_batch):
            hi = lo + s.insert_batch
            clock.time("insert", idx.insert_batch, e.insert_vids[lo:hi], e.insert_vecs[lo:hi])
        live[e.insert_vids] = True
        n_updates += len(e.delete_vids) + len(e.insert_vids)
        queue_max = max(queue_max, len(idx.jobs))
        clock.time("drain", idx.process_jobs)
        checks.drain(_max_posting(idx), cfg.split_limit)
        wl.apply(e)
        lo = (i * s.probe_queries) % s.n_final_queries
        ids, lats = clock.time("search", idx.search_batch, wl.query_vecs[lo : lo + s.probe_queries], K)
        n_queries += len(ids)
        sim.extend(lats)
        checks.searches(ids, live, int(live.sum()))
    ssd = idx.ssd.counters.delta(ssd0)
    # recall of the final index over the whole query set, outside the timing
    mark("check")
    _, gt = wl.ground_truth(K)
    ids, _ = idx.search_batch(wl.query_vecs, K)
    checks.searches(ids, live, int(live.sum()))
    return {
        "clock": clock,
        "n_queries": n_queries,
        "n_updates": n_updates,
        "n_inserts": n_updates - sum(len(e.delete_vids) for e in wl.epochs),
        "sim_us": sim,
        "recall": recall_at_k(ids, gt),
        "disk": _disk_bytes_per_live(idx, int(live.sum())),
        "ssd": ssd,
        "idx": idx,
        "queue_depth_max": queue_max,
        "inputs": digest(wl.base_vecs, wl.query_vecs, *(e.insert_vecs for e in wl.epochs)),
    }


# ---------------------------------------------------------------------------
# shared runner
# ---------------------------------------------------------------------------
def _setup_and_loop(name: str, seed: int, seconds: float, s: CoreScale):
    if name == "search-uniform":
        return (lambda: _setup_search(seed, s)), (
            lambda st, c, mark, speed: _loop_search(st, seconds, s, c, mark, speed))
    return (lambda: _setup_churn(seed, s, seconds)), (
        lambda st, c, mark, speed: _loop_churn(st, seconds, s, c, mark, speed))


def timing_metrics(loop: dict, c: Samples) -> tuple[dict, dict]:
    """Timing metrics of one loop's call samples ``c``, its simulated and
    deterministic metrics, plus tail labels."""
    search_ms = c.ms("search")
    total_ops = loop["n_queries"] + loop["n_updates"]
    m = {
        "search_qps": loop["n_queries"] / c.total("search"),
        "search_batch_ms_p50": median(search_ms),
        "recall_at_10": loop["recall"],
        "disk_bytes_per_live_vector": loop["disk"],
        "ops_per_s": total_ops / c.total(*c.samples),
    }
    labels = {}
    t, p, n = tail(search_ms)
    m["search_batch_ms_tail"] = t
    labels["search_batch_ms_tail"] = {"percentile": p, "n": n}
    if loop["sim_us"]:
        m["sim_search_us_p50"] = median(loop["sim_us"])
        t, p, n = tail(loop["sim_us"])
        m["sim_search_us_tail"] = t
        labels["sim_search_us_tail"] = {"percentile": p, "n": n}
    if loop["n_updates"]:
        m["update_ops_per_s"] = loop["n_updates"] / c.total("delete", "insert", "drain")
        for key, metric in (("insert", "insert_batch_ms"), ("drain", "rebalance_ms")):
            ms = c.ms(key)
            m[f"{metric}_p50"] = median(ms)
            t, p, n = tail(ms)
            m[f"{metric}_tail"] = t
            labels[f"{metric}_tail"] = {"percentile": p, "n": n}
    return m, labels


def engine_metrics(loop: dict) -> dict:
    """Deterministic engine, device and posting counters of one loop."""
    idx = loop["idx"]
    st = idx.stats
    ssd = loop["ssd"]
    out = {f"engine.{k}": float(getattr(st, k)) for k in (
        "splits", "merges", "gc_rewrites", "reassign_jobs", "reassign_evaluated",
        "reassign_moved", "max_cascade_depth", "inserts_triggering_rebalance",
        "reassign_aborted_cas",
    )}
    out["reassign.moved_per_evaluated"] = st.reassign_moved / max(1, st.reassign_evaluated)
    out.update({
        "ssd.blocks_read": float(ssd.blocks_read),
        "ssd.blocks_written": float(ssd.blocks_written),
        "ssd.read_batches": float(ssd.read_batches),
        "ssd.busy_us": float(ssd.busy_us),
        "jobs.queue_depth_max": float(loop["queue_depth_max"]),
    })
    out.update(_posting_gauges(idx))
    return out


def stream_seed(seed: int, rep: int) -> int:
    """Seed of the ``rep``-th input of a run with ``--seed seed``."""
    return seed * 1000 + rep


def merge_loops(loops: list[dict]) -> dict:
    """One loop record out of the loops over a run's independent inputs."""
    out = dict(loops[0])
    for key in ("n_queries", "n_updates", "n_inserts"):
        out[key] = sum(lp[key] for lp in loops)
    out["sim_us"] = [x for lp in loops for x in lp["sim_us"]]
    out["recall"] = float(np.mean([lp["recall"] for lp in loops]))
    out["disk"] = float(np.mean([lp["disk"] for lp in loops]))
    out["queue_depth_max"] = max(lp["queue_depth_max"] for lp in loops)
    out["inputs"] = digest(*(np.frombuffer(lp["inputs"].encode(), np.uint8) for lp in loops))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scale: CoreScale | None = None,
        recorder=None) -> dict:
    """Run one core workload; returns the raw record the caller reports.

    Untraced, ``s.inputs(name)`` independent inputs are drawn from
    ``seed``; each is set up (the median set-up time is ``setup_s``) and
    gets an equal share of the loop, and the metrics pool all calls.
    Traced, the first input alone runs once untraced and once traced.
    """
    s = scale or CoreScale()
    n_inputs = s.inputs(name)
    checks = Checks()
    speed = HostSpeed()
    rec = {"scale": asdict(s)}
    no_mark = lambda phase: None  # noqa: E731
    if not trace:
        setup_spans, loops = [], []
        for r in range(n_inputs):
            setup, loop_fn = _setup_and_loop(name, stream_seed(seed, r), seconds / n_inputs, s)
            speed.tick(force=True)
            t0 = time.perf_counter()
            state = setup()
            setup_spans.append((t0, time.perf_counter()))
            speed.tick(force=True)
            loops.append(loop_fn(state, checks, no_mark, speed))
            # release this index before the next build
            state = None
            loops[-1]["idx"] = None
        speed.finish()
        loop = merge_loops(loops)
        calls = Samples.pooled([lp["clock"].samples for lp in loops])
        raw = Samples.pooled([lp["clock"].raw for lp in loops])
        setup_times = [speed.scaled(*sp) for sp in setup_spans]
        rec["setup_s_samples"] = setup_times
        rec["setup_s"] = median(setup_times)
        rec["setup_s_wall"] = median([t1 - t0 for t0, t1 in setup_spans])
    else:
        setup, loop_fn = _setup_and_loop(name, stream_seed(seed, 0), seconds / n_inputs, s)
        # untraced pass for clean wall times, then an identical traced pass
        loop = loop_fn(setup(), checks, no_mark, speed)
        speed.finish()
        calls, raw = Samples(loop["clock"].samples), Samples(loop["clock"].raw)
        recorder.install_core()
        try:
            recorder.phase = "setup"
            state = setup()
            recorder.phase = "loop"
            traced = loop_fn(state, checks, lambda phase: setattr(recorder, "phase", phase), speed)
        finally:
            recorder.phase = "done"
            recorder.uninstall()
        rec["trace_overhead_s"] = (
            Samples(traced["clock"].raw).total(*traced["clock"].spans) - raw.total(*raw.samples))
        rec["engine"] = engine_metrics(traced)
        rec["engine_untraced_equal"] = engine_metrics(loop) == rec["engine"]
        rec["loop_queries"] = traced["n_queries"]
        rec["loop_inserts"] = traced["n_inserts"]
    rec["metrics"], rec["tail_labels"] = timing_metrics(loop, calls)
    rec["wall_metrics"], _ = timing_metrics(loop, raw)
    rec["host_speed"] = speed.summary()
    rec["samples_ms"] = {k: calls.ms(k) for k in calls.samples}
    rec["checks"] = checks
    rec["inputs"] = loop["inputs"]
    return rec
