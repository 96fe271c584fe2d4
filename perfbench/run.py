#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload evaluate|dse|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The executable is built with dune in its
release profile into .bench_build/ (dune's shared cache is disabled so
nothing is written outside the tree), then replaces this process, so its
standard output and exit code are the run's.  A failed build exits 2
without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        sys.exit(2)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
