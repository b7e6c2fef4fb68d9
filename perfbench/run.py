#!/usr/bin/env python3
"""Build and run the ACROBAT benchmark.

Run from the root of an acrobat checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds perfbench/src/bench.exe with dune into .bench_build (no dune
cache, so nothing is written outside the checkout), runs it, relays its
output, and checks that the last line is a result whose metric names and
units are the ones BENCHMARK.json lists. The result is printed as the last
line of standard output. Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/src/bench.exe"
EXE = os.path.join(BUILD_DIR, "default", TARGET)
WORKLOADS = ["offline-accounting", "offline-values", "serve-stream", "chaos-campaign"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "perfbench/dune-project"):
        if not os.path.exists(need):
            fail(f"{need} not found; run from the root of an acrobat checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build failed with exit code {proc.returncode}")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(res)}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--quick", action="store_true", help="minimal work (self-test only)")
    args = ap.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode} and no result")
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
