#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload memsweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the simulator
sources it compiles) in Release mode under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset. Build output goes to
stderr; the benchmark's report, whose last line is one JSON object,
goes to stdout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("memsweep", "gatecall", "mesh64", "campaign")

# A run must end within 180 s; leave room for start-up and the build
# check. The first build in a checkout may take far longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.exit(f"perfbench: failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    out = build()
    if args.selftest:
        proc = subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"], check=False)
        return proc.returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, f"spans-{args.workload}-{args.seed}.jsonl")]
    # The report goes straight to our stdout; on a timeout the child is
    # killed and waited for before we exit.
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
