#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 simbench/selftest.py

Builds the harness the way run.py does. Then, for every workload in
BENCHMARK.json, it makes short runs (one round of jobs each) and checks:
  1. at the default seed every job matches its pinned digest;
  2. a deliberately wrong pinned digest makes that job, and only that job,
     count as failed;
  3. a held-out seed gives identical per-job digests on two runs;
  4. each mode prints exactly the metrics BENCHMARK.json lists, with their
     units.
Prints one line per check and exits 1 on the first failure. Its scratch file
goes into the build directory.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (imported after turning bytecode caching off)

DEFAULT_SEED = "1"
HELD_OUT_SEED = "424242"


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def invoke(binary, workload, seed, trace="0", pinned=run.PINNED):
    """One short run; returns (result, {job: digest}, stderr)."""
    cmd = [binary, "--workload", workload, "--seed", seed, "--seconds",
           "0.01", "--trace", trace, "--pinned", pinned, "--print-digests"]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    if p.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), p.returncode, p.stderr))
    lines = p.stdout.splitlines()
    digests = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "digest":
            digests[parts[2]] = parts[3]
    return json.loads(lines[-1]), digests, p.stderr


def check_metrics(result, listed, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        fail("%s prints other metrics than BENCHMARK.json lists: %s"
             % (what, diff))


def tampered_pins(workload, job):
    """A copy of the pinned digests with `job`'s digest one bit off."""
    out = os.path.join(run.build_dir(), "tampered_digests.txt")
    with open(run.PINNED) as src, open(out, "w") as dst:
        for line in src:
            parts = line.split()
            if parts[:2] == [workload, job]:
                parts[2] = "%016x" % (int(parts[2], 16) ^ 1)
            dst.write(" ".join(parts) + "\n")
    return out


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in [w["name"] for w in spec["workloads"]]:
        res, pinned, _ = invoke(binary, wl, DEFAULT_SEED)
        if not res["correct"] or res["failed"] != 0:
            fail("%s: the default seed does not match its pinned digests" % wl)
        check_metrics(res, spec["end_to_end"], wl + " --trace 0")
        print("ok   %s: %d jobs match their pinned digests" % (wl, len(pinned)))

        job = sorted(pinned)[0]
        res, _, err = invoke(binary, wl, DEFAULT_SEED,
                             pinned=tampered_pins(wl, job))
        if (res["correct"] or res["failed"] == 0
                or "job %s failed" % job not in err):
            fail("%s: a wrong pinned digest for %s went unnoticed" % (wl, job))
        if err.count(" failed: ") != 1:
            fail("%s: jobs other than %s failed:\n%s" % (wl, job, err))
        print("ok   %s: a wrong pin for %s fails %d of %d jobs "
              "(failed_jobs_pct %.1f)"
              % (wl, job, res["failed"], res["attempted"],
                 100.0 * res["failed"] / res["attempted"]))

        first = invoke(binary, wl, HELD_OUT_SEED)
        second = invoke(binary, wl, HELD_OUT_SEED)
        if (not first[1] or first[1] != second[1]
                or first[0]["failed"] or second[0]["failed"]):
            fail("%s: seed %s does not repeat its digests" % (wl, HELD_OUT_SEED))
        if first[1] == pinned:
            fail("%s: seed %s gave the default seed's digests"
                 % (wl, HELD_OUT_SEED))
        print("ok   %s: seed %s repeats its %d digests"
              % (wl, HELD_OUT_SEED, len(first[1])))

        res, _, _ = invoke(binary, wl, DEFAULT_SEED, trace="1")
        if not res["correct"] or res["failed"] != 0:
            fail("%s: the traced run changed a digest" % wl)
        check_metrics(res, spec["per_layer"], wl + " --trace 1")
        print("ok   %s: --trace 1 prints the %d per-layer metrics"
              % (wl, len(res["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
