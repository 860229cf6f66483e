#!/usr/bin/env python3
"""Perf-trajectory regression gate for perf_suite results.

The suite (bench/perf_suite.cpp) emits a sgxpl-bench-result/v1 document
whose "scalars" block carries two metric domains:

  cycles.*  deterministic simulated-cycle metrics — the gated surface.
            Any relative change beyond --tolerance (default 2%), in either
            direction, fails the gate: an unexplained cycle-domain shift
            means simulation behaviour changed, not that a machine was slow.
  wall.*    host wall-clock throughput — machine-dependent; deltas are
            printed for trend-watching but never gated.

Usage:
  bench_gate.py compare FRESH.json [BASELINE.json]
      [--tolerance 0.02] [--repo-root DIR]
    Compare a fresh perf_suite run against a committed baseline. When no
    baseline is given, the highest-numbered BENCH_*.json at the repo root
    (default: cwd) is used. Exit 1 on regression or missing cycles key.

  bench_gate.py determinism A.json B.json
    Two same-seed runs must agree exactly on every cycles.* scalar.
    Exit 1 on any mismatch.

  bench_gate.py trend [FILE.json ...] [--repo-root DIR]
    Print every scalar across result files, one row per key and one column
    per file: by default every BENCH_*.json at the repo root in number
    order, then any FILE given. A key a file lacks shows as a blank cell.
"""

import argparse
import json
import re
import sys
from pathlib import Path


def load_scalars(path):
    with open(path) as f:
        doc = json.load(f)
    scalars = doc.get("scalars")
    if not isinstance(scalars, dict):
        sys.exit(f"error: {path}: no 'scalars' object (not a bench result?)")
    return scalars


def bench_files(repo_root):
    """The committed BENCH_<n>.json files, in ascending n."""
    numbered = []
    for p in Path(repo_root).glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if m:
            numbered.append((int(m.group(1)), p))
    return [p for _, p in sorted(numbered)]


def latest_baseline(repo_root):
    files = bench_files(repo_root)
    return files[-1] if files else None


def cycles_keys(scalars):
    return {k: v for k, v in scalars.items() if k.startswith("cycles.")}


def wall_keys(scalars):
    return {k: v for k, v in scalars.items() if k.startswith("wall.")}


def rel_delta(old, new):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def cmd_compare(args):
    fresh = load_scalars(args.fresh)
    baseline_path = args.baseline or latest_baseline(args.repo_root)
    if baseline_path is None:
        print(f"bench_gate: no BENCH_*.json baseline under {args.repo_root}; "
              "nothing to gate (first run?)")
        return 0
    base = load_scalars(baseline_path)
    print(f"bench_gate: {args.fresh} vs {baseline_path} "
          f"(tolerance {args.tolerance:.1%})")

    failures = []
    base_cycles, fresh_cycles = cycles_keys(base), cycles_keys(fresh)
    for key in sorted(base_cycles):
        if key not in fresh_cycles:
            failures.append(f"{key}: present in baseline, missing from fresh "
                            "run (cell removed or renamed without a new "
                            "baseline)")
            continue
        d = rel_delta(base_cycles[key], fresh_cycles[key])
        status = "FAIL" if abs(d) > args.tolerance else "ok"
        print(f"  [{status:>4}] {key}: {base_cycles[key]:.0f} -> "
              f"{fresh_cycles[key]:.0f} ({d:+.2%})")
        if status == "FAIL":
            failures.append(f"{key}: {d:+.2%} exceeds ±{args.tolerance:.1%}")
    for key in sorted(set(fresh_cycles) - set(base_cycles)):
        print(f"  [ new] {key}: {fresh_cycles[key]:.0f} (ungated until "
              "committed)")

    base_wall, fresh_wall = wall_keys(base), wall_keys(fresh)
    for key in sorted(set(base_wall) & set(fresh_wall)):
        d = rel_delta(base_wall[key], fresh_wall[key])
        print(f"  [info] {key}: {base_wall[key]:.3g} -> "
              f"{fresh_wall[key]:.3g} ({d:+.2%}, not gated)")

    if failures:
        print(f"bench_gate: FAIL ({len(failures)} regression(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench_gate: PASS")
    return 0


def cmd_determinism(args):
    a, b = load_scalars(args.a), load_scalars(args.b)
    ca, cb = cycles_keys(a), cycles_keys(b)
    failures = []
    if set(ca) != set(cb):
        only_a = sorted(set(ca) - set(cb))
        only_b = sorted(set(cb) - set(ca))
        failures.append(f"cycles key sets differ: only in {args.a}: {only_a}; "
                        f"only in {args.b}: {only_b}")
    for key in sorted(set(ca) & set(cb)):
        if ca[key] != cb[key]:
            failures.append(f"{key}: {ca[key]!r} != {cb[key]!r}")
    if failures:
        print(f"bench_gate: determinism FAIL ({args.a} vs {args.b}):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"bench_gate: determinism PASS "
          f"({len(ca)} cycles.* scalars identical)")
    return 0


def cmd_trend(args):
    paths = bench_files(args.repo_root) + [Path(f) for f in args.files]
    if not paths:
        print(f"bench_gate: no BENCH_*.json under {args.repo_root}")
        return 1
    columns = [load_scalars(p) for p in paths]
    keys = sorted(set().union(*columns))
    names = [p.stem for p in paths]
    key_w = max(len("key"), *(len(k) for k in keys))
    widths = [max(len(n), 10) for n in names]
    print("  ".join(["key".ljust(key_w)] +
                    [n.rjust(w) for n, w in zip(names, widths)]))
    for key in keys:
        cells = [f"{col[key]:.4g}" if key in col else "" for col in columns]
        print("  ".join([key.ljust(key_w)] +
                        [c.rjust(w) for c, w in zip(cells, widths)]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compare", help="gate a fresh run against a baseline")
    p.add_argument("fresh")
    p.add_argument("baseline", nargs="?", default=None)
    p.add_argument("--tolerance", type=float, default=0.02,
                   help="max allowed |relative delta| on cycles.* "
                        "(default 0.02)")
    p.add_argument("--repo-root", default=".",
                   help="where to look for committed BENCH_*.json "
                        "(default: cwd)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("determinism",
                       help="two same-seed runs must match exactly")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_determinism)

    p = sub.add_parser("trend",
                       help="every scalar across the BENCH_*.json files")
    p.add_argument("files", nargs="*",
                   help="extra result files, appended after the BENCH files")
    p.add_argument("--repo-root", default=".",
                   help="where to look for committed BENCH_*.json "
                        "(default: cwd)")
    p.set_defaults(fn=cmd_trend)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
