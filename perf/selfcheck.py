#!/usr/bin/env python3
"""Tiny-size self-check of the repository benchmark; takes seconds.

Usage, from the root of a checkout:

    python3 perf/selfcheck.py

Runs every workload of BENCHMARK.json on shrunken inputs (--tiny), once
untraced and once traced, and fails when a metric BENCHMARK.json names is
missing or not finite, when the result line is malformed, or when any op
failed. Then runs every workload once more with --corrupt, which flips a
byte of the first answer before it is checked, and fails unless that run
reports the op as failed. Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perf", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (workload, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError("%s: attempted=%r" % (workload, result["attempted"]))
    return result


def check_metrics(workload, result, expected):
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        raise AssertionError("%s: metrics %s, expected %s"
                             % (workload, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError("%s: %s is not finite: %r" % (workload, name, value))
        if metrics[name]["unit"] != unit:
            raise AssertionError("%s: %s has unit %r, expected %r"
                                 % (workload, name, metrics[name]["unit"], unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = run(workload, trace)
            check_metrics(workload, result, expected)
            if result["failed"] != 0 or not result["correct"]:
                raise AssertionError("%s trace=%d: %d of %d ops failed"
                                     % (workload, trace, result["failed"],
                                        result["attempted"]))
        corrupted = run(workload, 0, ["--corrupt"])
        if corrupted["failed"] < 1 or corrupted["correct"]:
            raise AssertionError("%s: a corrupted answer was not counted as failed"
                                 % workload)
        print("selfcheck %s: ok (corrupted answer counted: %d failed)"
              % (workload, corrupted["failed"]))
    print("selfcheck: all workloads ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("selfcheck FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
