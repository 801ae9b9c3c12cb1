#!/usr/bin/env python3
"""Builds nbcp-bench from this checkout's sources and runs one workload.

Run from the root of a checkout:

  python3 bench/suite/run.py --workload <name> --seed <n> \
      [--seconds <s>] [--trace 0|1] [--out <dir>] [--quick]

The build goes under $CARGO_TARGET_DIR (default .bench_build); the first
call configures and compiles, later calls only check that it is current.
Build output goes to standard error. The benchmark's result is the last line
of standard output, and its exit code is this script's exit code. Run files
(every repetition, quartiles, facade spans) go to --out, by default
<build dir>/results.
"""

import argparse
import os
import shutil
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds nbcp-bench; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "nbcp-bench")
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(cmake_dir, f)) for f in generated):
        configure = ["cmake", "-S", SUITE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "bench", "nbcp-bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"nbcp-bench build failed: {e}", file=sys.stderr)
        return 1

    out = args.out or os.path.join(build_dir, "results")
    os.makedirs(out, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--out", out]
    if args.quick:
        command.append("--quick")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
