#!/usr/bin/env python3
r"""Builds and runs the A-F-L pipeline benchmark for one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-corpus --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs only check the build is current. The knobs that would
change what is measured are removed from the environment. The binary's
stdout is passed through, with one "host" line (nproc, load average
before and after, git sha) inserted before the final result line; with
--trace 0 the result also gets peak_rss_mb from three probe processes,
each run with a single malloc arena.
Digests and spans are written to <target>/perfbench-results. See
WORKLOADS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper-corpus", "straight-line", "hof-contexts", "edit-session"]
PINNED_ENV = ["AFL_CLOSURE_JOBS", "AFL_SOLVER_JOBS", "AFL_CLOSURE_WIDEN",
              "AFL_INTERP", "AFL_ARENA_POOL", "AFL_ARENA_POOL_MAX"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RSS_PROBES = 3
# One malloc arena in the probes: with glibc's per-thread arenas the peak
# depends on how many solver helper threads happened to pick up work
# (paper-corpus read 80 MB on an idle host and 65 MB on a loaded one; with
# one arena it reads 48 MB on both).
RSS_PROBE_ENV = {"GLIBC_TUNABLES": "glibc.malloc.arena_max=1"}


def build(bench_dir, build_dir):
    """Configures (once) and builds afl_perfbench; build output goes to
    stderr so stdout carries only results."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    return True


def run_binary(cmd, env):
    """Runs the benchmark binary; None if it had to be killed."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def fail(proc):
    """Passes a failed run's output through and returns its exit code."""
    if proc is None:
        return 3
    sys.stdout.write(proc.stdout)
    print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
    return proc.returncode or 4


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-results")

    load_before = os.getloadavg()
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [os.path.join(build_dir, "afl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", out_dir]
    rss = None
    if args.trace == "0":
        # Peak RSS: the median over fresh processes that each do a fixed
        # amount of work, so it does not depend on how much fits in a run.
        peaks = []
        for _ in range(RSS_PROBES):
            probe = run_binary(cmd + ["--probe-rss", "1"],
                               dict(env, **RSS_PROBE_ENV))
            if probe is None or probe.returncode != 0:
                return fail(probe)
            metrics = json.loads(probe.stdout.splitlines()[-1])["metrics"]
            peaks.append(metrics["peak_rss_mb"]["value"])
        rss = {"peak_rss_mb": {"value": statistics.median(peaks),
                               "unit": "MB"}}
    proc = run_binary(cmd, env)
    if proc is None or not proc.stdout.strip():
        return fail(proc)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if rss is not None:
        result["metrics"].update(rss)

    host = {"nproc": os.cpu_count(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "git_sha": git_sha()}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
