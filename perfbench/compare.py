#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload x metric.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by ``perfbench/run.py`` (one JSON
record per ``.json`` file, or one per line of a ``.jsonl`` file), or
directories holding them. Each row shows each side's median and quartiles
and a verdict:

- end-to-end metrics: ``better`` (9 of 10 run pairs won and a median shift
  beyond the before side's quartile spread), ``worse`` (beyond the bound in
  BENCHMARK.json), ``unresolved`` (the run-to-run spread exceeds the bound
  and the runs overlap) or ``same`` (within the bound);
- per-layer metrics, which have no bound: ``better``/``worse`` only when
  every run of one side beats every run of the other;
- deterministic metrics (fixed by seed and ``--seconds``, see
  ``perfbench/spec.json``) that differ on a seed both sides ran are a
  ``BEHAVIOUR CHANGE``, never a speed-up.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json*")) if path.is_dir() else [path]
    out = []
    for f in files:
        text = f.read_text()
        lines = text.splitlines() if f.suffix == ".jsonl" else [text]
        out += [json.loads(line) for line in lines if line.strip()]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_deterministic(spec: dict, workload: str, metric: str) -> bool:
    det = spec["deterministic"]
    if det.get("core_only") and workload == "spark-churn":
        return False
    return metric in det["end_to_end"] or any(
        metric.startswith(p) for p in det["per_layer_prefixes"])


def verdict(a: dict, b: dict, better: str, bound: float | None, deterministic: bool) -> str:
    """a, b: seed -> value for each side."""
    if deterministic:
        common = set(a) & set(b)
        if any(a[s] != b[s] for s in common):
            return "BEHAVIOUR CHANGE"
        if common:
            return "same (exact)"
    # goodness: higher is better on both sides
    sign = 1.0 if better == "higher" else -1.0
    ga = [sign * v for v in a.values()]
    gb = [sign * v for v in b.values()]
    a1, am, a3 = quartiles(ga)
    b1, bm, b3 = quartiles(gb)
    if am == 0:
        return "same" if bm == 0 else "n/a (zero median before)"
    gain = (bm - am) / abs(am)  # > 0: AFTER is better
    if min(gb) > max(ga):
        return "better"
    all_worse = max(gb) < min(ga)
    if bound is None:
        return "worse" if all_worse else "no clear change"
    spread = max(a3 - a1, b3 - b1) / abs(am)
    if -gain > bound and (all_worse or spread <= bound):
        return "worse"
    if spread > bound:
        return "unresolved"
    # a gain needs 9 of 10 (before, after) pairs won and a median shift
    # beyond the before side's own quartile spread
    wins = sum(y > x for x in ga for y in gb) / (len(ga) * len(gb))
    if wins >= 0.9 and gain > (a3 - a1) / abs(am):
        return "better"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = []
    for p in (args.before, args.after):
        table: dict = defaultdict(dict)  # (workload, metric) -> seed -> value
        for r in load(p):
            for name, value in r["metrics"].items():
                table[(r["workload"], name)][r["seed"]] = value
        sides.append(table)
    a, b = sides
    worse = changed = 0
    print(f"{'workload':15} {'metric':38} {'before median [q1,q3]':>32} "
          f"{'after median [q1,q3]':>32} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        wl, name = key
        m = meta.get(name)
        if m is None:
            continue
        v = verdict(a[key], b[key], m["better"], m.get("bound"),
                    is_deterministic(spec, wl, name))
        worse += v == "worse"
        changed += v == "BEHAVIOUR CHANGE"
        q = [quartiles(list(side[key].values())) for side in (a, b)]
        change = (q[1][1] - q[0][1]) / abs(q[0][1]) if q[0][1] else 0.0
        print(f"{wl:15} {name:38} "
              + " ".join(f"{x[1]:>12.5g} [{x[0]:.4g},{x[2]:.4g}]".rjust(32) for x in q)
              + f" {change:>+8.1%}  {v}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:15} {key[1]:38} only in {'before' if key in a else 'after'}")
    print(f"\n{worse} worse beyond bound, {changed} behaviour changes")
    return 1 if worse or changed else 0


if __name__ == "__main__":
    sys.exit(main())
