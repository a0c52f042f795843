#!/usr/bin/env python3
"""Builds and runs the openfill benchmark.

Run from the root of an openfill checkout:

    python3 benchmark/run.py --workload fill_inmem --seed 1 --seconds 15 --trace 0

Builds benchmark/ (which compiles ../src in Release) into .bench_build/,
runs openfill_bench with its scratch files under .bench_work/, and prints the
program's JSON result as the last stdout line. Build logs and progress go to
stderr. Exits non-zero, without a result line, when the sources are missing,
the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fill_inmem", "stream_xl", "serve_mixed")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "benchmark"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "openfill_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "openfill_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "benchmark/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"missing {needed}: run from the root of an openfill checkout")
            return 2

    binary = build(root)
    if binary is None:
        return 1

    work = os.path.join(root, WORK_DIR, args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark run failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
