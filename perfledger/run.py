#!/usr/bin/env python3
"""Build the perf ledger from source and run one measurement.

    python3 perfledger/run.py --workload fleet-live --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout: the build goes to
<checkout>/.bench_build/perfledger (configured and built on the first run,
an incremental no-op afterwards) and run files to
<checkout>/.bench_build/perfledger-run. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's (0 measured, 2 usage, 3 correctness gate failed); a failed
build exits 1 and prints no result.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfledger")
BINARY = os.path.join(BUILD, "perfledger")


def build():
    """Configure (once) and build; serialized across concurrent runs."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfledger.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        print("perfledger: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(BUILD_ROOT, "perfledger-run"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
