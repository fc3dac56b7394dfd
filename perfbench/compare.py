#!/usr/bin/env python3
"""Paired comparison of two checkouts on the BREW benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR \
        [--workload NAME ...] [--pairs 10] [--seconds S] [--seed0 N] [--trace]

PARENT_DIR and CHANGE_DIR are checkout roots holding BENCHMARK.json. For
each workload the script runs both sides --pairs times. Pair i uses seed
seed0+i on both sides, and the side that runs first alternates between
pairs. Each checkout builds into its own .bench_build directory.

For every metric it prints each side's median and quartiles, the share of
pairs the change wins (ties count for neither side), the parent's own
quartile spread, and a verdict:

  gain        the change wins at least 9 pairs in 10 and the medians differ
              by more than the parent's quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  within      neither

With --trace the per-layer metrics are compared instead; they have no
bound, so no regression verdict is given. Exit status is 1 when any
end-to-end metric regresses, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{root}: {' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} produced incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace", action="store_true", help="compare the per-layer metrics")
    args = ap.parse_args()

    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    spec_p, spec_c = load_spec(parent), load_spec(change)
    if spec_p["command"] != spec_c["command"]:
        print("warning: the two checkouts run different benchmark commands", file=sys.stderr)
    seconds = args.seconds or spec_c["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec_c["workloads"]]
    metrics = spec_c["per_layer" if args.trace else "end_to_end"]
    if args.pairs < 10:
        print("warning: fewer than 10 pairs cannot support a claim", file=sys.stderr)

    regressed = False
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [("parent", parent, spec_p), ("change", change, spec_c)]
            if i % 2:
                order.reverse()
            for side, root, spec in order:
                runs[side].append(run_once(root, spec, w, seed, seconds, args.trace))
            print(f"# {w}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

        print(f"\n## {w} ({args.pairs} pairs, {seconds} s per run)")
        print(f"{'metric':34} {'parent p50 [q1, q3]':>30} {'change p50 [q1, q3]':>30} "
              f"{'wins':>5} {'parent IQR':>10} verdict")
        for m in metrics:
            name, better = m["name"], m.get("better", "lower")
            p = [r[name] for r in runs["parent"] if r.get(name) is not None]
            c = [r[name] for r in runs["change"] if r.get(name) is not None]
            if len(p) != args.pairs or len(c) != args.pairs:
                print(f"{name:34} missing values")
                continue
            pq, cq = quartiles(p), quartiles(c)
            sign = -1 if better == "lower" else 1
            decided = [sign * (b - a) for a, b in zip(p, c) if a != b]
            wins = sum(d > 0 for d in decided) / args.pairs
            iqr = pq[2] - pq[0]
            delta = cq[1] - pq[1]
            verdict = "within"
            if wins >= 0.9 and sign * delta > iqr:
                verdict = "gain"
            elif "bound" in m and pq[1] and -sign * delta / abs(pq[1]) > m["bound"]:
                verdict = "regression"
                regressed = True
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{name:34} {fmt(pq):>30} {fmt(cq):>30} {wins:5.2f} {iqr:10.4g} {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
