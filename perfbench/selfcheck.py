#!/usr/bin/env python3
"""Self-check of the outside-in benchmark. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seconds N] [--seed N] [WORKLOAD ...]

For each workload (all three by default) it checks that
  1. two runs at one seed print the same stream hash and identical
     simulated end-to-end metrics and simulated layer counters (the
     "# sim" lines), to the last digit;
  2. another seed changes the operation stream and the simulated results;
  3. the traced run (--trace 1) passes its own checks, among them that its
     traced replays reproduce the untraced simulated results exactly, and
     prints the same "# sim" lines as the untraced run;
and, once, that malformed command lines exit with status 2 and print no
result. Every run must also pass the benchmark's correctness checks.
Exits 0 when everything holds, 1 otherwise. Short runs (--seconds 1, the
default) keep it to a couple of minutes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["large_aging", "small_churn", "verified_mixed"]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def bench(workload, seed, seconds, trace):
    code, out, err = run(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if code != 0 or result is None or not result["correct"]:
        sys.stderr.write(out[-4000:] + err[-4000:])
        raise SystemExit(f"FAIL: {workload} seed {seed} trace {trace} "
                         f"exited {code}")
    stream = re.search(r"stream_hash=([0-9a-f]+)", out).group(1)
    sim = [line for line in lines if line.startswith("# sim ")]
    return stream, sim


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    opts = parser.parse_args()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in opts.workloads:
        a_stream, a_sim = bench(workload, opts.seed, opts.seconds, 0)
        b_stream, b_sim = bench(workload, opts.seed, opts.seconds, 0)
        check(a_stream == b_stream and a_sim == b_sim and a_sim,
              f"{workload}: same seed, same stream and simulated results")
        c_stream, c_sim = bench(workload, opts.seed + 1, opts.seconds, 0)
        check(c_stream != a_stream and c_sim != a_sim,
              f"{workload}: another seed, another stream and results")
        t_stream, t_sim = bench(workload, opts.seed, opts.seconds, 1)
        check(t_stream == a_stream and t_sim == a_sim,
              f"{workload}: traced run reproduces the simulated results")

    bad_lines = [
        ["--workload", "no_such_workload"],
        ["--workload", "small_churn", "--seed", "garbage"],
        ["--workload", "small_churn", "--seconds", "0"],
        ["--workload", "small_churn", "--seconds", "1.5"],
        ["--workload", "small_churn", "--trace", "2"],
        ["--workload", "small_churn", "--scale=garbage"],
        ["--seed", "1"],
    ]
    for args in bad_lines:
        code, out, _ = run(args)
        check(code == 2 and '"correct"' not in out,
              "rejects " + " ".join(args))

    print("PASS" if not failures else f"{len(failures)} check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
