#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Chaos: error_rate must rise above 0 when a fault is injected.
   fuzz-campaign runs with --chaos skip-flush (the fuzz oracles' runtimes
   drop every icache flush); reconfig-storm runs with --chaos stale-cache
   (variant-cache eviction skips the dedup-table invalidation).
2. Determinism: two traced runs with the same seed give identical
   count-type per-layer metrics on every workload, and two untraced runs
   of each registered workload give identical text_kib and
   guest_cycles_per_op.
3. Held-out seed: every workload finishes with no failed operation at a
   seed that was not used while the benchmark was written.

Exits 1 if any check fails.
"""

import json
import subprocess
import sys

REGISTERED = ["kernel-build", "reconfig-storm", "guest-exec"]
# fuzz-campaign is not registered (too noisy to gate on), but it still runs
WORKLOADS = REGISTERED + ["fuzz-campaign"]
SEED = 1
HELD_OUT_SEED = 424242
# per-layer metrics that are counts of work, not times: they must repeat
# exactly for one seed (gc.* and vm.machine.create_kwords depend on when
# minor collections happen to run)
COUNT_UNITS = {"count", "bytes", "cycles"}
COUNT_NAMES = {"core.runtime.cache_hit_ratio"}
DETERMINISTIC_E2E = ["text_kib", "guest_cycles_per_op"]
SECONDS = 4


def run(workload, seed, trace, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("FAIL: %s exited %d" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.strip().split("\n")[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.startswith("gc.")
            and (v["unit"] in COUNT_UNITS or k in COUNT_NAMES)}


def main():
    bad = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            bad.append(what)

    for workload, chaos in [("fuzz-campaign", "skip-flush"), ("reconfig-storm", "stale-cache")]:
        r = run(workload, SEED, 0, "--chaos", chaos)
        check(r["failed"] > 0 and not r["correct"],
              "chaos %s on %s: %d of %d operations failed"
              % (chaos, workload, r["failed"], r["attempted"]))

    for workload in WORKLOADS:
        a, b = (run(workload, SEED, 1) for _ in range(2))
        diff = sorted(k for k, v in counts(a).items() if counts(b).get(k) != v)
        check(not diff and a["correct"] and b["correct"],
              "traced %s, seed %d twice: %d count-type metrics identical%s"
              % (workload, SEED, len(counts(a)), (", differ: " + ", ".join(diff)) if diff else ""))
        if workload not in REGISTERED:
            continue
        a, b = (run(workload, SEED, 0) for _ in range(2))
        diff = [k for k in DETERMINISTIC_E2E if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not diff, "untraced %s, seed %d twice: %s identical%s"
              % (workload, SEED, " and ".join(DETERMINISTIC_E2E),
                 (", differ: " + ", ".join(diff)) if diff else ""))

    for workload in WORKLOADS:
        r = run(workload, HELD_OUT_SEED, 0)
        check(r["correct"] and r["failed"] == 0,
              "held-out seed %d on %s: %d of %d operations failed"
              % (HELD_OUT_SEED, workload, r["failed"], r["attempted"]))

    if bad:
        raise SystemExit("%d check(s) failed" % len(bad))


if __name__ == "__main__":
    main()
