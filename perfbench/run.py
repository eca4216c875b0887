#!/usr/bin/env python3
"""Builds the weber benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and compiles perfbench/ (which pulls in the
weber library from src/) into the build directory: $CARGO_TARGET_DIR when
set, else .bench_build. Every call then runs the weber_perfbench binary,
whose stdout passes through unchanged: the metric lines and, last, the
JSON result. Build output goes to stderr. The exit code is the binary's,
or non-zero when the build fails or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# Wall-clock limit of one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", "weber_perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: weber sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 2

    # Data dirs, sockets and traces of the run live here. The path stays
    # relative to the checkout so the socket path fits sun_path.
    workdir = os.path.relpath(os.path.join(out, "work"), ROOT)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    cmd = [os.path.join(out, "weber_perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
