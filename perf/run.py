#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perf/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Builds perf/CMakeLists.txt (the opcqa library from src/ plus the benchmark program
perf/perfbench.cc) in Release mode into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs the program with the given arguments. The
program's last output line is the JSON result; build output goes to stderr.
Exits non-zero, without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perf/run.py: no src/ directory next to perf/; nothing to build",
              file=sys.stderr)
        return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perf"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "opcqa_perfbench")


def main(argv):
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None or not os.path.exists(binary):
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        run = subprocess.run([binary, "--out", out_dir] + argv,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perf/run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
