#!/usr/bin/env python3
"""Served-path benchmark entry point.

    python3 perfbench/run.py --workload md5_serve|cpu_overload|fleet_burst \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe with
dune (the first build compiles the repo's libraries), runs it once to
measure, and under --trace 0 runs two more set-up-only processes so that
setup_s is the median of three cold set-ups.  Each process gets its own
empty JIT kernel cache, so every set-up includes the native compile.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Diagnostics go to stderr.  Exits non-zero, without a result line, if the
build or any run fails.
"""

import argparse
import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join("perfbench", "_run")
SETUP_RUNS = 3  # the measuring process plus two set-up-only processes
RUN_BUDGET = 170  # seconds for all measuring processes of one run


def fail(msg):
    print("FAIL perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def remove_kernel_caches():
    """A child removes its private JIT cache at exit; one killed on
    timeout cannot, so sweep what is left."""
    for d in os.listdir(OUT):
        if d.startswith("jit-"):
            shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)


def child(args, deadline):
    """Run the benchmark executable; return (spawn time, parsed last line)."""
    spawn = time.time()
    try:
        r = subprocess.run(
            [os.path.abspath(EXE)] + args,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            timeout=max(1.0, deadline - spawn),
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail("benchmark processes exceeded the %d s run budget" % RUN_BUDGET)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark process exited %d" % r.returncode)
    try:
        return spawn, json.loads(lines[-1])
    except ValueError:
        fail("benchmark process printed no result")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    atexit.register(remove_kernel_caches)
    deadline = time.time() + RUN_BUDGET
    common = ["--workload", a.workload, "--seed", str(a.seed), "--out", OUT]
    spawn, res = child(common + ["--seconds", str(a.seconds), "--trace", str(a.trace)], deadline)
    setups = [res.pop("setup_done_epoch") - spawn]
    if a.trace == 0:
        for _ in range(SETUP_RUNS - 1):
            s, r = child(common + ["--setup-only"], deadline)
            setups.append(r["setup_done_epoch"] - s)
        res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup_s samples: " + ", ".join("%.3f" % s for s in setups), file=sys.stderr)
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
