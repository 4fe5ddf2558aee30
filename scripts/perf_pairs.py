#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, summarized per metric.

    python3 scripts/perf_pairs.py <parent-tree> <change-tree> \
        --workload weighted_standalone --pairs 10 --seconds 30 --seed-base 301

Each tree is a full source checkout (for example a `git archive` of the
parent commit next to the working tree). Pair i runs `perfbench/run.py` in
both trees with seed `seed-base + i`; even pairs run the parent first, odd
pairs the change first. Each tree builds into its own CARGO_TARGET_DIR
(`<tree>/build-perf-pairs`), so the two builds never mix.

For every metric the runs report it prints each side's median [Q1, Q3], the
median change and how many pairs the change won (ties count for neither;
the better direction comes from the change tree's BENCHMARK.json). The last
column says whether a gain claim would hold under the usual rule: at least
ten pairs, wins in at least nine tenths of them, and medians further apart
than the parent's interquartile range, in the better direction. After it,
the median of the per-pair ratios change / parent with their min and max:
host-wide speed swings move both runs of a pair together, so the ratio
within a pair shows a gain that the per-side medians blur.

Exits 1 if any run fails or reports `"correct": false`, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in \\p tree; returns its parsed JSON or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, "build-perf-pairs"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perf_pairs: {tree} seed {seed}: no result (exit {proc.returncode})",
              file=sys.stderr)
        return None


def directions(tree):
    """Metric name -> 'higher' / 'lower' from the tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    better = directions(trees["change"])
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
            if res is None or not res.get("correct", False):
                ok = False
                print(f"perf_pairs: {side} seed {seed}: run failed or incorrect",
                      file=sys.stderr)
            runs[side].append(res)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    names = []
    for res in runs["parent"] + runs["change"]:
        for name in (res or {}).get("metrics", {}):
            if name not in names:
                names.append(name)

    print(f"{args.workload}: {args.pairs} pairs x {args.seconds:g} s, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"{'metric':32} {'parent median [Q1, Q3]':34} {'change median [Q1, Q3]':34} "
          f"{'delta':>8} {'wins':>6}  claim  pair ratio median [min, max]")
    for name in names:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if p and c and name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        par = sorted(p for p, _ in pairs)
        chg = sorted(c for _, c in pairs)
        pm, cm = statistics.median(par), statistics.median(chg)
        pq1, pq3 = quartiles(par)
        cq1, cq3 = quartiles(chg)
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        delta = (cm - pm) / abs(pm) * 100 if pm else float("nan")
        holds = (sign != 0 and len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
                 and sign * (cm - pm) > pq3 - pq1)
        par_col = f"{pm:.4g} [{pq1:.4g}, {pq3:.4g}]"
        chg_col = f"{cm:.4g} [{cq1:.4g}, {cq3:.4g}]"
        ratios = [c / p for p, c in pairs if p]
        ratio_col = (f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]"
                     if ratios else "n/a")
        print(f"{name:32} {par_col:34} {chg_col:34} {delta:+7.1f}% "
              f"{wins:>2}/{len(pairs):<3}  {('yes' if holds else 'no'):5} {ratio_col}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
