"""Spark workload ``spark-churn``: the skewed churn stream through ``spark_index``.

A closed loop with a single client: per epoch one ``updater.delete_batch``,
one fixed-size ``updater.insert_batch``, one ``rebalancer.rebalance`` drain
and one ``search.search_results_matrix`` probe, each waiting for the last.
Spark runs in local mode on two cores (``local[2]``), with every
scratch file (shuffle, Parquet store, JVM temp) under the checkout.
Call times are scaled to the nominal host speed (:class:`common.HostSpeed`);
the reference slices run in this process between Spark calls, when no
Spark job runs.
"""
from __future__ import annotations

import itertools
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from common import OUT, ROOT, Checks, Clock, HostSpeed, K, Samples, digest, median, recall_at_k


@dataclass
class SparkScale:
    n_base: int = 2_000
    dim: int = 32
    n_clusters: int = 64
    nprobe: int = 16
    rate: float = 0.08  # high enough that split, reassign and merge all fire
    epochs_per_s: float = 0.67  # 8 timed epochs at --seconds 12
    warmup_epochs: int = 1  # replayed untimed on a spare index first
    # A traced run makes two passes (untraced, then traced) over the first
    # trace_epochs epochs only -- 3 splits and 3 merges on the fixed stream
    # -- so that it ends well inside the time limit on a slow host.
    trace_epochs: int = 5
    probe_queries: int = 32
    n_final_queries: int = 128
    # The update stream is fixed; --seed draws the queries from a pool of the
    # stream's own query distribution. On streams that differ per seed, the
    # number of rebalance rounds in 8 epochs ranges from 6 to 9, which moves
    # ops_per_s by ~20% and disk bytes (one Parquet generation per round) by
    # ~30% between seeds: more than any usable bound.
    stream_seed: int = 0
    query_pool: int = 1024
    setup_reps: int = 3
    cores: int = 2
    shuffle_partitions: int = 2
    driver_memory: str = "2g"


def _n_epochs(seconds: float, s: SparkScale) -> int:
    return max(2, round(seconds * s.epochs_per_s))


class SparkRun:
    """Owns one local Spark session and its gateway process for a run."""

    def __init__(self, s: SparkScale, work: Path, speed: HostSpeed):
        self.work = work
        self.cores = max(1, min(s.cores, os.cpu_count() or 1))
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
        # every JVM (the launcher too): temp files here, no /tmp/hsperfdata
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["PYSPARK_PYTHON"] = sys.executable
        src = str(ROOT / "src")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{self.cores}] --driver-memory {s.driver_memory} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false pyspark-shell"
        )
        from pyspark.sql import SparkSession

        speed.tick(force=True)
        t0 = time.perf_counter()
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(s.shuffle_partitions))
            .config("spark.default.parallelism", str(s.shuffle_partitions))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.sql.warehouse.dir", str(work / "warehouse"))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.session_span = (t0, time.perf_counter())
        speed.tick(force=True)
        self.master = self.spark.sparkContext.master

    def close(self) -> None:
        """Stop Spark, then end the JVM gateway and wait for it to exit."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        self.spark.stop()
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except Exception:  # noqa: BLE001 - any failure to exit ends in kill
                proc.kill()
                proc.wait(timeout=30)
        SparkContext._gateway = None
        SparkContext._jvm = None


def _disk_bytes(root: str) -> int:
    total = 0
    for d, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def _generations(root: str) -> int:
    return sum(1 for n in os.listdir(root) if n.startswith("postings_v"))


def run(name: str, seed: int, seconds: float, trace: bool, scale: SparkScale | None = None,
        recorder=None) -> dict:
    s = scale or SparkScale()
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    speed = HostSpeed()
    sr = SparkRun(s, work, speed)
    try:
        return _run(sr, seed, seconds, trace, s, recorder, work, speed)
    finally:
        sr.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(sr: SparkRun, seed, seconds, trace, s: SparkScale, recorder, work: Path,
         speed: HostSpeed) -> dict:
    from repro import workloads
    from repro.experiments import default_config
    from repro.spark_index import build, rebalancer, search, updater

    cfg = default_config(s.dim, nprobe=s.nprobe)
    n_epochs = _n_epochs(seconds, s)
    roots = (str(work / f"store{i}") for i in itertools.count())

    def setup():
        wl = workloads.make_workload(
            "spacev", n_base=s.n_base, dim=s.dim, n_clusters=s.n_clusters,
            n_epochs=n_epochs, rate=s.rate, n_queries=s.query_pool, seed=s.stream_seed,
        )
        pick = np.random.default_rng(seed).choice(s.query_pool, s.n_final_queries, replace=False)
        wl.query_vecs = wl.query_vecs[pick]
        store = build.build_index(
            sr.spark, wl.base_vecs.astype(np.float64), wl.base_vids, cfg, next(roots)
        )
        return wl, store

    def loop(state, checks: Checks, mark, n=None, warmup=False) -> dict:
        """Replay the stream, or its first ``n`` epochs; a warm-up returns
        nothing and skips the final recall check."""
        wl, store = state
        n_total = s.n_base + sum(len(e.insert_vids) for e in wl.epochs)
        live = np.zeros(n_total, dtype=bool)
        live[wl.base_vids] = True
        clock = Clock(speed)
        agg = {"rounds": 0, "splits": 0, "merges": 0, "reassign_moved": 0}
        per_epoch = []
        n_queries = n_updates = n_inserts = 0
        for i, e in enumerate(wl.epochs[:n]):
            clock.time("delete", updater.delete_batch, store, e.delete_vids)
            live[e.delete_vids] = False
            clock.time("insert", updater.insert_batch, store, e.insert_vids,
                       e.insert_vecs.astype(np.float64))
            live[e.insert_vids] = True
            n_updates += len(e.delete_vids) + len(e.insert_vids)
            n_inserts += len(e.insert_vids)
            st = clock.time("drain", rebalancer.rebalance, store)
            for k in agg:
                agg[k] += getattr(st, k)
            per_epoch.append({k: getattr(st, k) for k in agg})
            mark("check")
            sizes = store.live_sizes()
            checks.drain(int(sizes["n_live"].max()), cfg.split_limit)
            mark("loop")
            wl.apply(e)
            lo = (i * s.probe_queries) % s.n_final_queries
            ids = clock.time("search", search.search_results_matrix, store,
                             wl.query_vecs[lo : lo + s.probe_queries].astype(np.float64), k=K)
            n_queries += len(ids)
            checks.searches(ids, live, int(live.sum()))
        if warmup:
            return {}
        mark("check")
        _, gt = wl.ground_truth(K)
        ids = search.search_results_matrix(store, wl.query_vecs.astype(np.float64), k=K)
        checks.searches(ids, live, int(live.sum()))
        return {
            "clock": clock,
            "n_queries": n_queries,
            "n_updates": n_updates,
            "n_inserts": n_inserts,
            "sim_us": [],
            "recall": recall_at_k(ids, gt),
            "disk": _disk_bytes(store.root) / max(1, int(live.sum())),
            "rebalance": agg,
            "rebalance_per_epoch": per_epoch,
            "generations": _generations(store.root),
            "inputs": digest(wl.base_vecs, wl.query_vecs, *(e.insert_vecs for e in wl.epochs)),
        }

    from core_bench import timing_metrics

    checks = Checks()
    rec = {"scale": asdict(s), "spark": {"master": sr.master, "cores": sr.cores}}
    no_mark = lambda phase: None  # noqa: E731
    if not trace:
        spans, states = [], []
        for _ in range(s.setup_reps):
            speed.tick(force=True)
            t0 = time.perf_counter()
            states.append(setup())
            spans.append((t0, time.perf_counter()))
        speed.tick(force=True)
        # JIT warm-up: replay the first epochs on a spare copy of the index,
        # so that the timed loop runs on compiled code from its first call
        loop(states[0], checks, no_mark, n=s.warmup_epochs, warmup=True)
        loop_out = loop(states[-1], checks, no_mark)
        speed.finish()
        times = [speed.scaled(*sp) for sp in spans]
        rec["setup_s_samples"] = times
        # The JVM's start-up threads keep running after the session is up
        # and slow the reference slices next to it, so the session start is
        # scaled by the whole run's median slice instead of the local one.
        session_s = sr.session_span[1] - sr.session_span[0]
        rec["setup_s"] = session_s * speed.run_factor() + median(times)
        rec["setup_s_wall"] = session_s + median([t1 - t0 for t0, t1 in spans])
    else:
        loop(setup(), checks, no_mark, n=s.warmup_epochs, warmup=True)
        loop_out = loop(setup(), checks, no_mark, n=s.trace_epochs)
        speed.finish()
        untraced_wall = Samples(loop_out["clock"].raw).total(*loop_out["clock"].spans)
        recorder.sc = sr.spark.sparkContext
        recorder.install_spark()
        try:
            recorder.phase = "setup"
            state = setup()
            recorder.phase = "loop"
            traced = loop(state, checks, lambda phase: setattr(recorder, "phase", phase),
                          n=s.trace_epochs)
        finally:
            recorder.phase = "done"
            recorder.uninstall()
        rec["trace_overhead_s"] = (
            Samples(traced["clock"].raw).total(*traced["clock"].spans) - untraced_wall)
        rec["spark_counts"] = {
            **{f"spark.rebalance.{k}": float(v) for k, v in traced["rebalance"].items()},
            "spark.generations_on_disk": float(traced["generations"]),
            "spark.session_start_s": sr.session_span[1] - sr.session_span[0],
        }
        rec["loop_queries"] = traced["n_queries"]
        rec["loop_inserts"] = traced["n_inserts"]
    calls = Samples(loop_out["clock"].samples)
    rec["metrics"], rec["tail_labels"] = timing_metrics(loop_out, calls)
    rec["wall_metrics"], _ = timing_metrics(loop_out, Samples(loop_out["clock"].raw))
    rec["host_speed"] = speed.summary()
    rec["samples_ms"] = {k: calls.ms(k) for k in calls.samples}
    rec["rebalance_per_epoch"] = loop_out["rebalance_per_epoch"]
    rec["checks"] = checks
    rec["inputs"] = loop_out["inputs"]
    return rec
