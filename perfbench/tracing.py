"""In-memory span and counter recorder, installed around the repro package.

Tracing is off unless a run asks for it (``--trace 1``). When on,
:func:`install` replaces each public function listed in :data:`PROBES`
with a timing wrapper *in every module that binds it*: ``pairwise_sq_l2``
and ``closure_assign`` are imported by name into ``core.spfresh``,
``core.centroid_index``, ``core.clustering``, ``core.lire`` and
``spark_index.*``, so patching only the defining module would miss most
calls. Methods are patched on their class.

Each span records name, start, end, parent span and the id of the
top-level operation it belongs to. Self time is a span's duration minus
the time covered by its child spans. Spans stay in memory and are written
out once, when the run ends (:meth:`Recorder.dump`).

Functions that run inside Spark pandas UDFs execute in worker processes
and are not seen here; on the Spark workload they are attributed at the
granularity of the driver-side Spark call that launched them.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    """One traced public function: ``module:qualname`` under a metric name.

    ``work`` maps ``(args, kwargs, result, before)`` to extra counters
    (e.g. tuples checked); ``before`` is what ``pre(args)`` returned just
    before the call. ``spark`` probes also count the Spark jobs they run.
    """

    name: str
    target: str
    work: Callable[..., dict[str, float]] | None = None
    pre: Callable[..., Any] | None = None
    spark: bool = False


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _pairwise_work(a, kw, out, before):
    n, m = out.shape
    d = int(np.atleast_2d(np.asarray(a[0])).shape[1])
    return {"pairwise_sq_l2.flops": 2.0 * n * m * d}


def _ssd_pre(a):
    c = a[0].ssd.counters
    return c.blocks_read, c.blocks_written


def _ssd_read_work(key):
    def work(a, kw, out, before):
        return {key: a[0].ssd.counters.blocks_read - before[0]}

    return work


def _ssd_write_work(key):
    def work(a, kw, out, before):
        return {key: a[0].ssd.counters.blocks_written - before[1]}

    return work


def _centroids_compared(batch: bool):
    def work(a, kw, out, before):
        per = len(a[0])
        return {"centroid_index.centroids_compared": per * (_rows(a[1]) if batch else 1)}

    return work


def _is_stale_work(a, kw, out, before):
    return {"version_map.is_stale.tuples": len(out), "version_map.is_stale.stale": int(out.sum())}


def _n_work(key, arg=0):
    def work(a, kw, out, before):
        return {key: _rows(a[arg])}

    return work


def _append_rows_work(a, kw, out, before):
    return {"spark.store.append_rows.rows": len(a[1])}


# Every public call the benchmark times, by layer (module).
PROBES: tuple[Probe, ...] = (
    # harness / workloads / synth_data
    Probe("make_workload", "repro.workloads:make_workload"),
    Probe("ground_truth_knn", "repro.synth_data:ground_truth_knn"),
    # core.distances
    Probe("pairwise_sq_l2", "repro.core.distances:pairwise_sq_l2", _pairwise_work),
    Probe("topk_indices", "repro.core.distances:topk_indices"),
    # core.centroid_index
    Probe("centroid_index.search", "repro.core.centroid_index:CentroidIndex.search",
          _centroids_compared(False)),
    Probe("centroid_index.search", "repro.core.centroid_index:CentroidIndex.search_batch",
          _centroids_compared(True)),
    # core.clustering
    Probe("balanced_two_means", "repro.core.clustering:balanced_two_means",
          _n_work("balanced_two_means.points")),
    Probe("hierarchical_balanced_clustering",
          "repro.core.clustering:hierarchical_balanced_clustering"),
    Probe("closure_assign", "repro.core.clustering:closure_assign",
          _n_work("closure_assign.vectors")),
    # core.lire
    Probe("condition_one", "repro.core.lire:condition_one", _n_work("condition_one.vectors")),
    Probe("condition_two", "repro.core.lire:condition_two", _n_work("condition_two.vectors")),
    # core.version_map
    Probe("version_map.is_stale", "repro.core.version_map:VersionMap.is_stale", _is_stale_work),
    Probe("version_map.bump_cas", "repro.core.version_map:VersionMap.bump_cas"),
    # blockstore.controller (device counters read around each call)
    Probe("controller.get_many", "repro.blockstore.controller:BlockController.get_many",
          _ssd_read_work("controller.get_many.blocks"), _ssd_pre),
    Probe("controller.get", "repro.blockstore.controller:BlockController.get",
          _ssd_read_work("controller.get.blocks"), _ssd_pre),
    Probe("controller.append", "repro.blockstore.controller:BlockController.append",
          _ssd_write_work("controller.append.blocks"), _ssd_pre),
    Probe("controller.put", "repro.blockstore.controller:BlockController.put",
          _ssd_write_work("controller.put.blocks"), _ssd_pre),
    # core.spfresh
    Probe("spfresh.build", "repro.core.spfresh:SPFreshIndex.build"),
    Probe("spfresh.search_batch", "repro.core.spfresh:SPFreshIndex.search_batch"),
    Probe("spfresh.search", "repro.core.spfresh:SPFreshIndex.search"),
    Probe("spfresh.insert_batch", "repro.core.spfresh:SPFreshIndex.insert_batch"),
    Probe("spfresh.insert", "repro.core.spfresh:SPFreshIndex.insert"),
    Probe("spfresh.delete", "repro.core.spfresh:SPFreshIndex.delete"),
    Probe("spfresh.process_jobs", "repro.core.spfresh:SPFreshIndex.process_jobs"),
)

SPARK_PROBES: tuple[Probe, ...] = (
    Probe("spark.build_index", "repro.spark_index.build:build_index", spark=True),
    Probe("spark.updater.insert_batch", "repro.spark_index.updater:insert_batch", spark=True),
    Probe("spark.updater.delete_batch", "repro.spark_index.updater:delete_batch", spark=True),
    Probe("spark.rebalance", "repro.spark_index.rebalancer:rebalance", spark=True),
    Probe("spark.compact", "repro.spark_index.rebalancer:compact", spark=True),
    Probe("spark.search", "repro.spark_index.search:search_results_matrix", spark=True),
    Probe("spark.store.live_sizes", "repro.spark_index.store:SparkPostingStore.live_sizes",
          spark=True),
    Probe("spark.store.live_df", "repro.spark_index.store:SparkPostingStore.live_df",
          spark=True),
    Probe("spark.store.append_rows", "repro.spark_index.store:SparkPostingStore.append_rows",
          _append_rows_work, spark=True),
    Probe("spark.store.write_postings",
          "repro.spark_index.store:SparkPostingStore.write_postings", spark=True),
)


class _Frame:
    __slots__ = ("span_id", "child_s", "jobs", "group")

    def __init__(self, span_id: int, group: str | None):
        self.span_id = span_id
        self.child_s = 0.0
        self.jobs = 0
        self.group = group


class Recorder:
    """Spans plus per-phase counters; one instance per traced run."""

    def __init__(self):
        self.sc = None  # a SparkContext when Spark calls are traced
        self.phase = "setup"
        self.calls: dict[str, Counter] = defaultdict(Counter)
        self.self_s: dict[str, Counter] = defaultdict(Counter)
        self.incl_s: dict[str, Counter] = defaultdict(Counter)
        self.jobs: dict[str, Counter] = defaultdict(Counter)
        self.work: dict[str, Counter] = defaultdict(Counter)
        # loop-phase calls and work keyed by (top-level op name, name)
        self.calls_by_top: Counter = Counter()
        self.work_by_top: Counter = Counter()
        self._top = ""
        self._stack: list[_Frame] = []
        self._names: dict[str, int] = {}
        self._next_span = 0
        self._next_op = 0
        self._op = -1
        # span columns: id, name, parent, op, start, end
        self._cols = {k: array("q") for k in ("id", "name", "parent", "op")}
        self._t = {k: array("d") for k in ("start", "end")}
        self._patches: list[tuple[object, str, object]] = []
        self.probe_names: set[str] = set()

    # -- recording ---------------------------------------------------------
    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        rec = self
        name = probe.name
        name_id = self._names.setdefault(name, len(self._names))

        @functools.wraps(fn)
        def traced(*a, **kw):
            stack = rec._stack
            if not stack:
                rec._op = rec._next_op
                rec._next_op += 1
                rec._top = name
            parent = stack[-1] if stack else None
            span_id = rec._next_span
            rec._next_span += 1
            group = None
            if probe.spark and rec.sc is not None:
                group = f"{name}#{span_id}"
                rec.sc.setJobGroup(group, name)
            frame = _Frame(span_id, group)
            before = probe.pre(a) if probe.pre else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                phase = rec.phase
                dur = t1 - t0
                rec.calls[phase][name] += 1
                if phase == "loop":
                    rec.calls_by_top[(rec._top, name)] += 1
                rec.incl_s[phase][name] += dur
                rec.self_s[phase][name] += dur - frame.child_s
                if group is not None:
                    frame.jobs += len(rec.sc.statusTracker().getJobIdsForGroup(group))
                    rec.jobs[phase][name] += frame.jobs
                    outer = next((f.group for f in reversed(stack) if f.group), None)
                    if outer is None:
                        rec.sc.setLocalProperty("spark.jobGroup.id", None)
                        rec.sc.setLocalProperty("spark.job.description", None)
                    else:
                        rec.sc.setJobGroup(outer, outer.split("#")[0])
                if parent is not None:
                    parent.child_s += dur
                    parent.jobs += frame.jobs
                c = rec._cols
                c["id"].append(span_id)
                c["name"].append(name_id)
                c["parent"].append(parent.span_id if parent is not None else -1)
                c["op"].append(rec._op)
                rec._t["start"].append(t0)
                rec._t["end"].append(t1)
            if probe.work is not None:
                for key, n in probe.work(a, kw, out, before).items():
                    rec.work[phase][key] += n
                    if phase == "loop":
                        rec.work_by_top[(rec._top, key)] += n
            return out

        return traced

    def install(self, probes: tuple[Probe, ...]) -> None:
        """Patch every probe at its class, or at every module binding it."""
        for probe in probes:
            self.probe_names.add(probe.name)
            mod_name, qual = probe.target.split(":")
            mod = importlib.import_module(mod_name)
            if "." in qual:
                cls_name, meth = qual.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(probe, raw.__func__))
                else:
                    new = self._wrap(probe, raw)
                self._patches.append((owner, meth, raw))
                setattr(owner, meth, new)
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(probe, orig)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("repro") and getattr(m, qual, None) is orig:
                    self._patches.append((m, qual, orig))
                    setattr(m, qual, wrapped)

    def install_core(self) -> None:
        self.install(PROBES)

    def install_spark(self) -> None:
        self.install(PROBES + SPARK_PROBES)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading -------------------------------------------------------------
    def total(self, table: str, key: str, phases: tuple[str, ...]) -> float:
        t = getattr(self, table)
        return float(sum(t[p][key] for p in phases))

    def n_spans(self) -> int:
        return len(self._cols["id"])

    def dump(self, path) -> None:
        """Write every span as columns of one compressed ``.npz`` file."""
        names = np.array(sorted(self._names, key=self._names.get))
        np.savez_compressed(
            path,
            names=names,
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self._cols.items()},
            **{k: np.frombuffer(v, dtype=np.float64) for k, v in self._t.items()},
        )
