#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wordcount-small, sort-large, sort-lz, dfs-mixed (see
perfbench/README.md). The first call configures and builds the library
modules and the benchmark from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only rebuild what changed.
The last line of standard output is the run's JSON result. Full results,
Chrome traces and critical-path reports go to perfbench/results/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wordcount-small", "sort-large", "sort-lz", "dfs-mixed"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the binary path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-output", action="store_true",
                        help="flip one output byte; the run must then fail")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    binary = build(build_dir)
    if binary is None or not os.path.exists(binary):
        log("build failed")
        return 1

    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--results", os.path.join(HERE, "results"), "--work", work_dir]
    if args.corrupt_output:
        cmd.append("--corrupt-output")
    # subprocess.run waits for the benchmark to exit; its stdout (the
    # result line last) passes straight through.
    try:
        code = subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
