#!/usr/bin/env python3
"""Compare two result sets of the host-cost benchmark (bench/e2e/README.md).

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark FILE]

Each result set is a JSONL file as bench/e2e/run.sh appends to
.bench_build/results.jsonl: one record per run with "workload", "seed",
"trace" and "metrics". Records are paired by (workload, trace, seed), in
file order when a seed repeats. For every workload and metric it prints each
side's median and quartiles and one verdict:

  gain        the change wins >= 9/10 of >= 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics only);
  unchanged   neither, and the parent's spread is within the bound;
  unresolved  anything else: the spread is wider than the bound, or the
              metric has no bound (per-layer metrics).

Exits 1 when any regression is found.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            runs[key][int(record["seed"])].append(record["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (c_med - p_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gap > p_q3 - p_q1):
        return "gain", wins
    if bound is not None and -gap > bound * abs(p_med):
        return "regression", wins
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if bound is not None and spread <= bound:
        return "unchanged", wins
    return "unresolved", wins


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    spec = {}
    for m in benchmark["end_to_end"]:
        spec[m["name"]] = (m["better"], m["bound"])
    for m in benchmark["per_layer"]:
        spec[m["name"]] = (m["better"], None)

    parent, change = load(args.parent), load(args.change)
    regressions = 0
    print(f"{'workload':16} {'metric':34} {'parent q1/med/q3':>36} "
          f"{'change q1/med/q3':>36} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        pairs = defaultdict(list)
        p_all, c_all = defaultdict(list), defaultdict(list)
        for seed in seeds:
            for p, c in zip(parent[key][seed], change[key][seed]):
                for name in p.keys() & c.keys():
                    pv, cv = p[name]["value"], c[name]["value"]
                    pairs[name].append((pv, cv))
                    p_all[name].append(pv)
                    c_all[name].append(cv)
        for name in sorted(pairs):
            if name not in spec:
                continue
            better, bound = spec[name]
            result, wins = verdict(p_all[name], c_all[name], pairs[name],
                                   better, bound)
            regressions += result == "regression"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"{workload:16} {name:34} {fmt(p_all[name]):>36} "
                  f"{fmt(c_all[name]):>36} {wins:>2}/{len(pairs[name]):<3}  "
                  f"{result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
