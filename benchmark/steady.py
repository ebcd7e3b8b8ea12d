#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds, in two or more
sets one after the other, and print per end-to-end metric each set's
median and the spread between its quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 benchmark/steady.py                      # every workload, 2 sets of seeds 1..10
    python3 benchmark/steady.py --workloads serve_write --seeds 5 --sets 1
    python3 benchmark/steady.py --trace 1 --seeds 3 --sets 1  # per-layer metrics

The bounds in BENCHMARK.json are set from this command's output, by the
rule it checks. The command fails (exit code 1) if

  * a metric's spread within a set exceeds its bound (`setup_s` is
    exempt: it is compared between sets by its median only);
  * a metric's median in a later set is worse than in the first set by
    more than its bound;
  * the share of failed operations differs between sets.

A spread at or above a third of its bound is marked `margin` but does
not fail: it is within the bound, with less room than wanted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def run_set(root, spec, workloads, args, metrics):
    """One set: every workload over every seed. Returns, per workload,
    the metric values and the failed shares of its runs."""
    out = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        shares = []
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(root, spec, workload, seed, args.seconds, args.trace)
            walls.append(wall)
            shares.append(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"  {workload}: {args.seeds} runs, wall {min(walls):.1f}-{max(walls):.1f} s",
              flush=True)
        out[workload] = (values, shares)
    return out


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_spec(root)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads.split(",")
    sets = []
    for i in range(args.sets):
        print(f"set {i + 1} of {args.sets}", flush=True)
        sets.append(run_set(root, spec, workloads, args, metrics))

    failures = []
    for workload in workloads:
        share_sets = [sorted(set(s[workload][1])) for s in sets]
        print(f"{workload}: failed share per set {share_sets}")
        if any(sh != share_sets[0] for sh in share_sets):
            failures.append(f"{workload}: failed share differs between sets")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            cells = []
            first_med = None
            for i, s in enumerate(sets):
                vals = s[workload][0][name]
                med, sp = spread(vals)
                mark = ""
                if bound is not None and name != "setup_s":
                    if sp > bound:
                        mark = " FAIL"
                        failures.append(f"{workload} {name}: set {i + 1} spread {sp:.2%} > {bound}")
                    elif sp >= bound / 3:
                        mark = " margin"
                cell = f"{med:12.4f} ({sp:6.2%}{mark})"
                if first_med is None:
                    first_med = med
                else:
                    w = worse_by(first_med, med, m["better"])
                    cell += f" {w:+6.2%}"
                    if bound is not None and w > bound:
                        cell += " FAIL"
                        failures.append(f"{workload} {name}: set {i + 1} median worse by {w:.2%} > {bound}")
                cells.append(cell)
                if args.verbose:
                    cells.append("[" + " ".join(f"{v:.6g}" for v in vals) + "]")
            bound_txt = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:32s} {m['unit']:6s} {bound_txt:10s} " + "  ".join(cells))
    if failures:
        for f in failures:
            print("FAIL: " + f)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
