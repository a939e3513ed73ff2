#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny sizes (about a minute).

Usage (from the repository root):

    python3 hydrabench/selftest.py

For every workload in BENCHMARK.json it runs run.py --tiny untraced and
traced, and checks that each run passes its correctness gate and emits
exactly the metric names and units BENCHMARK.json declares (end-to-end
untraced, per-layer traced), with every end-to-end value above zero. It
then re-runs each workload with two answers deliberately altered, one in
its distance and one in its id, and checks that the gate trips on both:
non-zero exit, "correct": false, exactly two failures.
Exits 1 on the first broken expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, tamper=False):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), "--tiny"]
    if tamper:
        command.append("--tamper")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check(condition, message):
    if not condition:
        print("selftest: FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            rc, result, stderr = run(workload, trace)
            check(rc == 0 and result is not None,
                  "%s exited %d\n%s" % (label, rc, stderr[-2000:]))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s result keys %s" % (label, sorted(result)))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, "%s gate: %s" % (label, result))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared[trace],
                  "%s metrics differ from BENCHMARK.json: extra %s, missing %s"
                  % (label, sorted(set(emitted) - set(declared[trace])),
                     sorted(set(declared[trace]) - set(emitted))))
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                check(not zero, "%s end-to-end metrics not above 0: %s"
                      % (label, zero))
            print("selftest: %s ok (%d requests)" % (label,
                                                     result["attempted"]))
        # One answer with an altered distance, one with an altered id: the
        # untampered run above failed nothing, so both must fail here.
        rc, result, _ = run(workload, 0, tamper=True)
        check(rc != 0 and result is not None and not result["correct"] and
              result["failed"] == 2,
              "%s: the gate did not trip on both altered answers (exit %d, %s)"
              % (workload, rc, result))
        print("selftest: %s altered distance and altered id caught" % workload)
    print("selftest: ok")


if __name__ == "__main__":
    main()
