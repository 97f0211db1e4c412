#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the whole program from source),
runs it with the same arguments, and forwards its output, whose last line
is one JSON object.

Exits non-zero without printing a result when the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main(argv):
    # keep dune's work inside the checkout: no shared cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", EXE],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0 or not run.stdout.rstrip("\n").split("\n")[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("benchmark failed (exit %d)" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
