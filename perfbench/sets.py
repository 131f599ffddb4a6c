#!/usr/bin/env python3
"""Runs a set of benchmark runs and summarises them across runs.

Usage, from the repository root:

    python3 perfbench/sets.py --workload train-evict --seeds 1-10 [--trace 0] [--seconds 10]

Each seed is one `perfbench/run.py` run. For every metric the summary
gives the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` computes them) and the quartile
spread as a share of the median, plus the failed share of operations.
With `--bounds BENCHMARK.json` it also flags spreads at or above a third
of each end-to-end metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values):
    """Median, quartiles and quartile spread (share of the median)."""
    if len(values) < 2:
        raise ValueError("need at least two runs to take quartiles")
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def parse_seeds(text):
    """`1-10` or `1,4,9` to a list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = next((l for l in lines if l.startswith("host:")), "host: ?")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bounds", help="BENCHMARK.json, to compare spreads with bounds")
    args = ap.parse_args()
    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        calibration = r["host"].rsplit("calibration_ms=", 1)[-1]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} calibration_ms={calibration} {values}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in results])
        flag = ""
        if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
            flag = f"  spread >= bound/3 ({bounds[name] / 3:.4f})"
        print(f"  {name:<38} median {s['median']:>12.5g}  q1 {s['q1']:>12.5g}  "
              f"q3 {s['q3']:>12.5g}  spread {s['spread']:.4f}{flag}")


if __name__ == "__main__":
    main()
