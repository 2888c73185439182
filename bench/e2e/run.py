#!/usr/bin/env python3
"""Build uucs_bench from this checkout's sources and run one workload.

Usage (from the repository root):
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/uucs_bench (Release, configured once and
rebuilt incrementally on every call); journals go to .bench_build/state and
traced runs write Chrome trace events to .bench_build/trace-NAME.json.
Build output goes to stderr, so the last line of stdout is the benchmark's
result object. The exit status is the benchmark's; a failed build exits 1
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to bench/: nothing to build")
    out = os.path.join(BUILD, "uucs_bench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "uucs_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "uucs_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload BENCHMARK.json lists; uucs_bench checks it")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    state = os.path.join(BUILD, "state")
    os.makedirs(state, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
