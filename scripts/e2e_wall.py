#!/usr/bin/env python3
"""End-to-end wall time of every bench binary, with a spread.

Runs each executable in BUILD/bench at SGXPL_SCALE=0.2 three times, one
after another, and prints one line per bench:

  wall.e2e.<bench>  median <s>  min <s>  mad <s>  reps <n>

then one line per wall.* scalar the benches report in their --json output
(perf_suite's fig8 lbm and deepsjeng accesses/s among them), with the same
median/min/MAD over the repetitions. The first line is a host line shaped
like simbench's: nproc, CPU model, compiler and build type. micro_ops runs
with a short --benchmark_min_time, so its wall time measures the cases, not
google-benchmark's default minimum.

Usage:
  scripts/e2e_wall.py [--build DIR] [--baseline DIR] [--only bench,...]

Run it from the repository root after building (cmake --build build).
With --baseline (another build tree, say of the parent commit), every
repetition runs the baseline's bench and then --build's, one after the
other, so that a host whose speed drifts over minutes hits both alike; each
line then shows both and the change of the median. The MAD says how far
apart two medians must be to mean anything.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCALE = 0.2
REPS = 3
# Seconds; this google-benchmark version takes a bare number.
MICRO_MIN_TIME = "0.05"


def host_line(build):
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "?", "?"
    cache = Path(build) / "CMakeCache.txt"
    if cache.exists():
        text = cache.read_text(errors="replace")
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
        if m:
            compiler = m.group(1)
            try:
                out = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True).stdout
                compiler = out.splitlines()[0] if out else compiler
            except OSError:
                pass
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
        if m:
            build_type = m.group(1) or "(none)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type}


def mad(xs):
    med = statistics.median(xs)
    return statistics.median(abs(x - med) for x in xs)


def run_once(exe, json_path):
    cmd = [str(exe)]
    if exe.name == "micro_ops":
        cmd += ["--benchmark_min_time=" + MICRO_MIN_TIME]
    else:
        cmd += ["--json", json_path]
    env = dict(os.environ, SGXPL_SCALE=str(SCALE))
    t0 = time.perf_counter()
    # Benches that write checkpoint files write them beside the result.
    proc = subprocess.run(cmd, env=env, cwd=os.path.dirname(json_path),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    secs = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{exe.name} exited {proc.returncode}:\n{proc.stderr}")
    scalars = {}
    if exe.name != "micro_ops" and os.path.exists(json_path):
        with open(json_path) as f:
            scalars = {k: v for k, v in json.load(f).get("scalars", {}).items()
                       if k.startswith("wall.")}
    return secs, scalars


def summary(xs):
    return {"median": statistics.median(xs), "min": min(xs), "mad": mad(xs),
            "reps": len(xs)}


def fmt(r):
    return (f"median {r['median']:>11.4g}  min {r['min']:>11.4g}  "
            f"mad {r['mad']:>9.3g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--baseline", default="",
                    help="a second build tree (say, of the parent commit): "
                         "each repetition runs its bench first, then "
                         "--build's, and each line shows both")
    ap.add_argument("--only", default="",
                    help="comma-separated bench names (default: all)")
    args = ap.parse_args()

    bench_dir = Path(args.build) / "bench"
    exes = sorted(p.resolve() for p in bench_dir.iterdir()
                  if p.is_file() and os.access(p, os.X_OK))
    if args.only:
        wanted = set(args.only.split(","))
        exes = [p for p in exes if p.name in wanted]
        missing = wanted - {p.name for p in exes}
        if missing:
            sys.exit(f"no such bench binary: {', '.join(sorted(missing))}")
    if not exes:
        sys.exit(f"no bench binaries under {bench_dir}; build first")
    builds = [args.build]
    if args.baseline:
        builds.insert(0, args.baseline)

    print("host " + json.dumps(host_line(args.build)), flush=True)
    results = {b: {} for b in builds}
    with tempfile.TemporaryDirectory(prefix="e2e_wall.") as tmp:
        json_path = os.path.join(tmp, "result.json")
        for exe in exes:
            rows = {b: {} for b in builds}
            for _ in range(REPS):
                for b in builds:
                    path = (Path(b) / "bench" / exe.name).resolve()
                    secs, scalars = run_once(path, json_path)
                    rows[b].setdefault(f"wall.e2e.{exe.name}", []).append(secs)
                    for k, v in scalars.items():
                        rows[b].setdefault(k, []).append(float(v))
            for key in rows[args.build]:
                line = f"{key:<46}"
                for b in builds:
                    results[b][key] = summary(rows[b].get(key, [float("nan")]))
                    line += "  " + fmt(results[b][key])
                if args.baseline:
                    was = results[args.baseline][key]["median"]
                    now = results[args.build][key]["median"]
                    line += f"  {(now - was) / was * 100:+6.1f}%"
                print(line, flush=True)
    for b in builds:
        total = sum(v["median"] for k, v in results[b].items()
                    if k.startswith("wall.e2e."))
        print(f"{'wall.e2e.total_of_medians':<46}  {total:.2f} s  ({b})")


if __name__ == "__main__":
    main()
