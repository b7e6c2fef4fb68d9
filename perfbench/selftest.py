#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that the yardstick links no acrobat library and that the serve p99
limit BENCHMARK.json states is the one the code uses, runs the in-process
tests (normalisation arithmetic, medians, golden file), then runs every
workload with minimal work, untraced and traced, on a seed that has golden
digests and on one that is cross-checked live, and checks that each prints
exactly the metric names of BENCHMARK.json with every output check passed.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SEEDS = [1, 100_003]


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def yardstick_is_standalone():
    with open(os.path.join(HERE, "yardstick", "dune")) as f:
        stanza = re.sub(r";[^\n]*", "", f.read())
    libs = re.search(r"\(libraries([^)]*)\)", stanza)
    names = libs.group(1).split() if libs else []
    if any(n.startswith("acrobat") for n in names):
        fail(f"the yardstick links {names}")
    with open(os.path.join(HERE, "yardstick", "yardstick.ml")) as f:
        if re.search(r"\bAcrobat", f.read()):
            fail("yardstick.ml names an Acrobat module")
    print(f"selftest: yardstick links only {names}")


def p99_limit_matches():
    """The serve p99 limit stated in BENCHMARK.json is the one the code uses."""
    with open("BENCHMARK.json") as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}["serve-stream"]
    stated = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", why)
    with open(os.path.join(HERE, "src", "serving.ml")) as f:
        used = re.search(r"let p99_limit_ms = (\d+(?:\.\d+)?)", f.read())
    if not stated or not used or float(stated.group(1)) != float(used.group(1)):
        fail("serve p99 limit in BENCHMARK.json and serving.ml differ")
    print(f"selftest: serve p99 limit {used.group(1)} ms")


def main():
    yardstick_is_standalone()
    p99_limit_matches()
    run.build()
    subprocess.run([run.EXE, "self-test"], check=True)
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
                    stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    fail(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
                res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
                if not res["correct"] or res["failed"]:
                    fail(f"{workload} seed {seed} trace {trace}: output checks failed")
                print(f"selftest: {workload} seed {seed} trace {trace}: "
                      f"{len(res['metrics'])} metrics, {res['attempted']} checks passed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
