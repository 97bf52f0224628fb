#!/usr/bin/env python3
"""Builds and runs the outside-in get/put benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large_aging|small_churn|verified_mixed \
        [--seed N|held-out] [--seconds N] [--trace 0|1]

The first call configures and builds perfbench/ (which builds the
repository's `lor` library from src/) in .bench_build/perfbench with
CMake in Release mode; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The benchmark binary then replaces this process; it checks
the flags itself and exits 2 on an unknown flag or a malformed value.
Traced runs (--trace 1) write their spans to .bench_build/spans/.
See perfbench/README.md for the workloads and metrics.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD, "lorepo_perfbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        # Serializes concurrent first runs in one checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "lorepo_perfbench", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    os.makedirs(SPANS, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    argv = [BINARY] + sys.argv[1:] + ["--spans-dir", SPANS]
    os.execv(BINARY, argv)
    return 0  # not reached


if __name__ == "__main__":
    sys.exit(main())
