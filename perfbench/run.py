#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_grillon --seed 0 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (build output goes to stderr), then runs
it with the same arguments. The last line of standard output is the JSON
result. See perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: dune-project or lib/ missing; "
            "run from the root of a complete checkout",
            file=sys.stderr,
        )
        return 2
    # The shared dune cache lives outside the checkout; keep the build local.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
