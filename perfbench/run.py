#!/usr/bin/env python3
"""Builds the tsdm benchmark and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/ (or $CARGO_TARGET_DIR when set); later
calls rebuild incrementally. The benchmark binary prints its report, and
this script ends the output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and
every per_layer metric with --trace 1. A per-layer metric of a layer the
workload does not run reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_TAG = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(step), 3)
    return os.path.join(build_dir, "tsdm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tsdm sources next to perfbench/ (src/CMakeLists.txt)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "perfbench-out")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in %d s" % RUN_TIMEOUT_S, 4)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail("benchmark exited with code %d and no result" % done.returncode,
             4)

    correct = result["correct"]
    if args.trace == "1":
        wanted, measured = spec["per_layer"], result["per_layer"]
    else:
        wanted, measured = spec["end_to_end"], result["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == "0":
                print("missing end-to-end metric " + m["name"])
                correct = False
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            print("metric %s measured in %s, declared in %s"
                  % (m["name"], got["unit"], m["unit"]))
            correct = False
        if args.trace == "0" and not got["value"] > 0:
            print("end-to-end metric %s is not positive" % m["name"])
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
