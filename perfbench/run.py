#!/usr/bin/env python3
"""Builds casc's performance benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the simulator sources it
links) in Release mode under .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to standard error. The binary's output is
checked against BENCHMARK.json (every metric of the mode, with its unit) and
then printed; its last line is the result JSON. perfbench/README.md has the
details.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "casc_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    want = expected_metrics(args.trace)
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("benchmark exited with %d" % r.returncode, file=sys.stderr)
        return 1
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        print("metrics do not match BENCHMARK.json: got %s, want %s" % (got, want),
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
