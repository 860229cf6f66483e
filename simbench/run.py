#!/usr/bin/env python3
"""Build and run the simulator benchmark (README.md in this directory).

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
harness from the checkout's own sources into $CARGO_TARGET_DIR/simbench
(default .bench_build/simbench); later runs rebuild only what changed. The
harness's standard output is passed through: a host line, a note on the
tail percentile, and last the result JSON. When the build or the run fails,
nothing is printed to standard output and the exit code is non-zero.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned_digests.txt")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "simbench")


def build():
    """Configure once, then build; returns the harness binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.h")):
        raise RuntimeError("no simulator sources under " + ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--parallel", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "simbench")


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary, "--pinned", PINNED] + argv,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("simbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("simbench: the last output line is not JSON", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
