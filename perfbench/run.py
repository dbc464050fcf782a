#!/usr/bin/env python3
"""Benchmark of the SPFresh reproduction: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-uniform --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. Workloads, metric names, units and bounds
are in ``BENCHMARK.json``; why each workload exists and which layer metric
should move which end-to-end metric are in ``perfbench/spec.json``.

``--trace 0`` prints every end-to-end metric. Times are wall-clock times
scaled to a nominal host speed that a fixed reference kernel, timed
between the calls, measures (see ``common.HostSpeed``); the unscaled wall
times are printed and recorded beside them. ``--trace 1`` makes an
untraced pass and then an identical traced pass, and prints every
per-layer metric (the tracing overhead is the traced minus the untraced
wall). Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record with provenance goes to
``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(workload: str, seed: int, seconds: int, trace: bool, scale=None) -> dict:
    """Run one workload in this process; returns the full result record."""
    from common import OUT, peak_rss_mb, provenance
    from layers import per_layer, split_check
    from tracing import Recorder

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if workload not in spec["workloads"]:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(spec['workloads'])}")
    wspec = spec["workloads"][workload]
    recorder = Recorder() if trace else None
    t0 = time.perf_counter()
    if workload == "spark-churn":
        import spark_bench as impl
    else:
        import core_bench as impl
    rec = impl.run(workload, seed, seconds, trace, scale, recorder)
    checks = rec["checks"]
    metrics = dict(rec["metrics"])
    metrics["peak_rss_mb"] = peak_rss_mb()
    floor = wspec["recall_floor"]
    recall_ok = floor is None or metrics["recall_at_10"] >= floor
    out = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_digest": rec["inputs"],
        "provenance": provenance(seed, rec["scale"], {"spark": rec.get("spark")}),
        "why": wspec["why"],
        "layer_map": spec["layers"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failure_reasons": checks.reasons,
        "recall_floor": floor,
        "recall_ok": recall_ok,
        "tail_labels": rec["tail_labels"],
        "samples_ms": rec["samples_ms"],
        "rebalance_per_epoch": rec.get("rebalance_per_epoch"),
        "run_wall_s": time.perf_counter() - t0,
        "host_speed": rec["host_speed"],
        # the same timing metrics in unscaled wall-clock time
        "wall_metrics": rec["wall_metrics"],
    }
    if trace:
        layer = per_layer([m["name"] for m in bench["per_layer"]], rec, recorder)
        errors, warnings = split_check(recorder, layer, wspec["expect"])
        out["split_errors"], out["split_warnings"] = errors, warnings
        out["engine_untraced_equal"] = rec.get("engine_untraced_equal")
        spans = OUT / "spans" / f"{workload}-seed{seed}-{time.time_ns()}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["metrics"] = layer
        out["units"] = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # end-to-end figures of the untraced pass, for reference
        out["extra"] = {k: v for k, v in metrics.items() if k not in layer}
    else:
        metrics["setup_s"] = rec["setup_s"]
        out["setup_s_samples"] = rec["setup_s_samples"]
        out["wall_metrics"]["setup_s"] = rec["setup_s_wall"]
        names = [m["name"] for m in bench["end_to_end"]]
        out["metrics"] = {n: float(metrics[n]) for n in names}
        out["units"] = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        # workload-specific timings that are not end-to-end metrics of
        # every workload (see spec.json "layers")
        out["extra"] = {k: v for k, v in metrics.items() if k not in out["metrics"]}
    out["correct"] = checks.failed == 0 and recall_ok and not out.get("split_errors")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # One client, one BLAS thread: idle BLAS threads spinning on a shared
    # machine add noise and no speed at these matrix sizes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import OUT, write_json

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in out["metrics"].items():
        label = out["tail_labels"].get(name)
        note = f"  (p{label['percentile']:g} of n={label['n']})" if label else ""
        print(f"{args.workload} {name} = {value:.6g} {out['units'][name]}{note}")
    for name, value in out.get("extra", {}).items():
        label = out["tail_labels"].get(name)
        note = f"  (p{label['percentile']:g} of n={label['n']})" if label else ""
        print(f"{args.workload} [extra] {name} = {value:.6g}{note}")
    if not args.trace:
        for name in out["metrics"]:
            if out["wall_metrics"].get(name, out["metrics"][name]) != out["metrics"][name]:
                print(f"{args.workload} [wall] {name} = {out['wall_metrics'][name]:.6g}")
    hs = out["host_speed"]
    print(f"{args.workload} [host] reference slice p50 = {hs['slice_s_p50'] * 1e3:.4g} ms"
          f" (nominal {hs['nominal_s'] * 1e3:.4g} ms, {hs['slices']} slices)")
    for msg in out.get("split_errors", []):
        print(f"LAYER SPLIT BROKEN: {msg}", file=sys.stderr)
    for msg in out.get("split_warnings", []):
        print(f"warning: {msg}", file=sys.stderr)
    for reason, n in out["failure_reasons"].items():
        print(f"failed x{n}: {reason}", file=sys.stderr)
    if not out["recall_ok"]:
        print(f"recall_at_10 below the floor {out['recall_floor']}", file=sys.stderr)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    write_json(path, out)
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {n: {"value": v, "unit": out["units"][n]} for n, v in out["metrics"].items()},
    }))
    if out.get("split_errors"):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
