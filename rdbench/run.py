#!/usr/bin/env python3
"""Build the benchmark runner from source, then run one workload.

Run from the root of a routedesign checkout:

    python3 rdbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

The build goes to the checkout's _build directory with dune's shared
cache off, so nothing is read from or written to outside the checkout.
Build output goes to standard error; the runner then replaces this
process, so its last line of standard output is the result object.
"""

import os
import subprocess
import sys

TARGET = "./rdbench/main.exe"
RUNNER = os.path.join("_build", "default", "rdbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("rdbench", "dune-project"))):
        sys.stderr.write("rdbench: run this from the root of a routedesign checkout "
                         "(no dune-project, lib/ or rdbench/ here)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("rdbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    os.execv(RUNNER, [RUNNER] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
