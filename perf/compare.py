#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perf/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are JSON-lines files (or directories of *.jsonl
files), one result record per line: the perf/out/<workload>.result.json
a run writes. Run the two sides alternately with the same seeds, so
line i of one side pairs with line i of the other.

Per workload and end-to-end metric it applies the benchmark's rule:
  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count
              for neither), and the medians differ by more than the
              parent's interquartile range;
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread (IQR / median) exceeds the bound,
              unless every change run beats every parent run;
  ok          none of the above.
It also flags a round-0 digest that differs at the same seed (the
change altered simulated results) and any increase in failed ops.
Exits 1 on a regression, a digest difference or more failures.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(verdict, detail) for one metric's two run lists."""
    sign = 1 if better == "higher" else -1
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (pq3 - pq1) / pmed if pmed else 0.0
    worse = -sign * (cmed - pmed) / pmed if pmed else 0.0
    dominates = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    detail = (f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change "
              f"{cmed:.6g}  wins {wins}/{len(pairs)}  spread "
              f"{spread:.3f}  worse {worse:+.3f}")
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cmed - pmed) > pq3 - pq1):
        return "gain", detail
    if spread > bound and not dominates:
        return "unresolved", detail
    if worse > bound:
        return "regression", detail
    return "ok", detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    bad = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} "
              f"change runs")
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs
                  if name in r["metrics"]]
            if not pv or not cv:
                print(f"  {name:14s} missing")
                continue
            v, detail = verdict(pv, cv, m["better"], m["bound"])
            bad |= v == "regression"
            print(f"  {name:14s} {v:10s} {detail}")

        p_digest = {r["seed"]: r["round0_digest"] for r in p_runs
                    if "round0_digest" in r}
        for r in c_runs:
            d = p_digest.get(r.get("seed"))
            if d is not None and r.get("round0_digest") != d:
                print(f"  DIGEST DIFFERS at seed {r['seed']}: parent {d}"
                      f" change {r['round0_digest']}")
                bad = True
        p_failed = sum(r.get("failed", 0) for r in p_runs)
        c_failed = sum(r.get("failed", 0) for r in c_runs)
        if c_failed > p_failed:
            print(f"  MORE FAILED OPS: parent {p_failed} change "
                  f"{c_failed}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
