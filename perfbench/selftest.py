#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Runs both core workloads at a tiny scale, traced, twice with one seed and
once with another. With the same seed, the simulated search latencies,
recall, disk bytes per live vector and every engine, SSD and work counter
must repeat exactly: they are reproduction metrics, not noise. With a
different seed the generated inputs must differ, which proves the seed
reaches the workload. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = dict(
    n_base=1500, n_queries=128, n_recall_queries=64, search_batch=32,
    search_batches_per_s=2.0, epochs_per_s=2.0, insert_batch=10, probe_queries=16,
    n_final_queries=64, search_inputs=1, churn_inputs=1,
)
SECONDS = 3


def deterministic(out: dict, spec: dict) -> dict:
    """The metrics of one traced record that must repeat for a seed."""
    det = spec["deterministic"]
    keep = {k: v for k, v in out["metrics"].items()
            if any(k.startswith(p) for p in det["per_layer_prefixes"]) or k.endswith(".calls")}
    keep.update({k: out["extra"][k] for k in det["end_to_end"]})
    return keep


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from core_bench import CoreScale
    from run import run

    spec = json.loads((HERE / "spec.json").read_text())
    failures = []
    for workload in ("search-uniform", "churn-skewed"):
        outs = [run(workload, seed, SECONDS, True, CoreScale(**TINY)) for seed in (7, 7, 8)]
        first, again, other = (deterministic(o, spec) for o in outs)
        diff = sorted(k for k in first if first[k] != again[k])
        if diff:
            failures.append(f"{workload}: seed 7 twice differs in {diff}")
        if not outs[0]["engine_untraced_equal"]:
            failures.append(f"{workload}: untraced and traced passes differ in engine counters")
        if outs[0]["inputs_digest"] == outs[2]["inputs_digest"]:
            failures.append(f"{workload}: seeds 7 and 8 generated the same inputs")
        if first == other:
            failures.append(f"{workload}: seeds 7 and 8 gave identical metrics")
        print(f"{workload}: {len(first)} deterministic metrics compared; "
              f"inputs {outs[0]['inputs_digest']} vs {outs[2]['inputs_digest']}; "
              f"{'FAIL' if diff else 'ok'}")
    for f in failures:
        print("FAIL:", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
