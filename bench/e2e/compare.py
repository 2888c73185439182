#!/usr/bin/env python3
"""Compare two builds of the UUCS code under uucs_bench, or one build with itself.

    python3 bench/e2e/compare.py --base PARENT --change CHANGE [options]
    python3 bench/e2e/compare.py --same [TREE] [options]

PARENT, CHANGE and TREE are each either a uucs_bench binary or a source
tree (a checkout with src/). A source tree is built with THIS tree's
benchmark code (bench/e2e) against that tree's src/, so both sides run
identical benchmark code and settings.

Base/change mode runs --pairs alternating pairs per workload (the change
goes first in odd pairs), each pair on its own seed. For every end-to-end
metric it prints each side's median and quartiles, the change's win rate
(ties count for neither side) and a verdict against the BENCHMARK.json
bound:
  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's quartile spread exceeds the bound, unless every
              change run reads better than every parent run;
  unchanged   otherwise.
--same runs one build --pairs times per workload, then again on the same
seeds, one set after the other, so a drift of the host between the sets
shows. It checks that each metric's spread in both sets (setup_s's
excepted) and the drift of the second set's median from the first's, in
either direction, are within the metric's bound. The exit status is 1 when any run fails its correctness checks,
when a metric is worse (base/change) or when the two sets disagree (--same).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(path, work, name):
    """Returns a uucs_bench binary for `path` (a binary or a source tree)."""
    path = os.path.abspath(path)
    if os.path.isfile(path) and os.access(path, os.X_OK):
        return path
    if not os.path.isfile(os.path.join(path, "src", "CMakeLists.txt")):
        sys.exit("compare.py: %s is neither a uucs_bench binary nor a source tree" % path)
    out = os.path.join(work, "build-" + name)
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DUUCS_ROOT=" + path],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                 "--target", "uucs_bench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("compare.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "uucs_bench")


def run(binary, workload, seed, seconds, state):
    """One invocation; returns {metric: value}, or None when it failed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--state-dir", state]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result.get("correct"):
        print("  FAILED: %s (exit %d)" % (" ".join(cmd), proc.returncode), file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, change, metric):
    """The choosing-metrics section 8 verdict for one metric on one workload."""
    direction, bound = metric["better"], metric["bound"]
    bq1, bmed, bq3 = quartiles([b for b, _ in base])
    _, cmed, _ = quartiles([c for c, _ in change])
    pairs = list(zip([b for b, _ in base], [c for c, _ in change]))
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    win_rate = wins / len(pairs)
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    worse_by = (cmed - bmed) / bmed if bmed else 0.0
    if direction == "higher":
        worse_by = -worse_by
    dominates = all(better(c, b, direction) for c, _ in change for b, _ in base)
    if win_rate >= 0.9 and abs(cmed - bmed) > (bq3 - bq1) and better(cmed, bmed, direction):
        return "improved", win_rate
    if spread > bound and not dominates:
        return "unresolved", win_rate
    if worse_by > bound:
        return "worse", win_rate
    return "unchanged", win_rate


def fmt(v):
    return "%.6g" % v


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="parent: binary or source tree")
    parser.add_argument("--change", help="change: binary or source tree")
    parser.add_argument("--same", nargs="?", const=ROOT,
                        help="run two sets of one build (default: this tree)")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every run and verdict here")
    args = parser.parse_args()
    if bool(args.same) == bool(args.base or args.change) or \
            (not args.same and not (args.base and args.change)):
        parser.error("give --base and --change, or --same")
    if args.pairs < (5 if args.same else 10):
        parser.error("--pairs must be at least %d" % (5 if args.same else 10))

    # Run length is the benchmark's, identical on both sides.
    seconds = bench["run_seconds"]
    work = os.path.join(ROOT, ".bench_build", "compare")
    state = os.path.join(work, "state")
    os.makedirs(state, exist_ok=True)
    if args.same:
        first = second = build(args.same, work, "same")
        labels = ("set1", "set2")
    else:
        first = build(args.base, work, "base")
        second = build(args.change, work, "change")
        labels = ("parent", "change")

    metrics = bench["end_to_end"]
    report = {"mode": "same" if args.same else "compare", "pairs": args.pairs,
              "seconds": seconds, "workloads": {}}
    failed = False
    for workload in args.workloads:
        print("== %s: %d pairs of %d s" % (workload, args.pairs, seconds), flush=True)
        planned = range(args.first_seed, args.first_seed + args.pairs)
        if args.same:
            schedule = [(0, s) for s in planned] + [(1, s) for s in planned]
        else:
            schedule = [(side, s) for i, s in enumerate(planned)
                        for side in ((0, 1) if i % 2 == 0 else (1, 0))]
        sides = ([], [])  # per side: list of (seed, metrics)
        for side, seed in schedule:
            got = run((first, second)[side], workload, seed, seconds, state)
            if got is None:
                failed = True
            else:
                sides[side].append((seed, got))
        seeds = {s for s, _ in sides[0]} & {s for s, _ in sides[1]}
        rows = {}
        print("  %-18s %-9s %30s %30s %6s  %s" % ("metric", "", labels[0] + " q1/med/q3",
                                                labels[1] + " q1/med/q3", "wins", "verdict"))
        for m in metrics:
            name = m["name"]
            base = [(v[name], s) for s, v in sides[0] if s in seeds]
            change = [(v[name], s) for s, v in sides[1] if s in seeds]
            if not base:
                continue
            bq = quartiles([v for v, _ in base])
            cq = quartiles([v for v, _ in change])
            if args.same:
                # Either direction counts: a second set that reads faster
                # than the first disagrees as much as a slower one. Set-up
                # time may spread, but its median may not drift.
                drift = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
                spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, cq)]
                ok = abs(drift) <= m["bound"] and (
                    name == "setup_s" or max(spreads) <= m["bound"])
                result, win_rate = ("agree" if ok else "DISAGREE"), None
                failed |= not ok
                extra = " (spreads %.3f/%.3f, drift %+.3f, bound %.2f)" % (
                    spreads[0], spreads[1], drift, m["bound"])
            else:
                result, win_rate = verdict(base, change, m)
                failed |= result == "worse"
                extra = ""
            rows[name] = {"first": [v for v, _ in base], "second": [v for v, _ in change],
                          "first_quartiles": bq, "second_quartiles": cq,
                          "verdict": result, "win_rate": win_rate}
            print("  %-18s %-9s %30s %30s %6s  %s%s" % (
                name, m["unit"], "/".join(fmt(x) for x in bq), "/".join(fmt(x) for x in cq),
                "-" if win_rate is None else "%.2f" % win_rate, result, extra), flush=True)
        report["workloads"][workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
