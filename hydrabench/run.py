#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage (from the repository root):

    python3 hydrabench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace 0|1 [--tiny] [--tamper]

Builds the benchmark binary (the hydra library from this checkout's
sources, Release) into .bench_build on first use, runs the workload, and
passes its output through: the last line of standard output is the JSON
result. Build output goes to standard error. Exits non-zero when the build
fails, the run fails, or an answer is wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "hydrabench")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# A run must end within 180 s; the binary gets a little less.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hydrabench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every workload in seconds")
    parser.add_argument("--tamper", action="store_true",
                        help="alter one answer; the correctness gate must trip")
    args = parser.parse_args()

    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--cache", CACHE_DIR, "--work", work_dir]
    if args.tiny:
        command.append("--tiny")
    if args.tamper:
        command.append("--tamper")
    sys.stdout.flush()
    try:
        child = subprocess.Popen(command)
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 3
        except BaseException:
            child.kill()
            child.wait()
            raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
