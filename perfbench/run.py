#!/usr/bin/env python3
"""Builds and runs one SAND loader benchmark run.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-evict --seed 1 --seconds 10 --trace 0

Steps: build the `perfbench` binary (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), write the run's inputs with
`perfbench gen` in one process, then measure in a second process with
`perfbench run`, whose last stdout line is the JSON result. Inputs live
under `.bench_data/` and are removed afterwards. Exits non-zero, without
a result line, when any step fails or overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("train-evict", "trials-shared", "restart-log")
BUILD_LIMIT_S = 880
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, limit_s, capture):
    """Runs `cmd`, killing it and failing when it overruns `limit_s`."""
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else sys.stderr,
            timeout=max(1.0, limit_s),
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail(f"{cmd[1] if len(cmd) > 1 else cmd[0]} overran {limit_s:.0f} s")
    if done.returncode != 0:
        fail(f"{' '.join(cmd[:2])} exited with {done.returncode}")
    return done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.environ["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    run_step(build, BUILD_LIMIT_S, capture=False)
    binary = os.path.join(ROOT, target, "release", "perfbench")

    data = os.path.join(ROOT, ".bench_data", f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", data]
    started = time.monotonic()
    try:
        run_step([binary, "gen", *common], RUN_LIMIT_S, capture=False)
        left = RUN_LIMIT_S - (time.monotonic() - started)
        out = run_step(
            [binary, "run", *common, "--seconds", str(args.seconds), "--trace", args.trace],
            left,
            capture=True,
        )
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("the measured process printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
