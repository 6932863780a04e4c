#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py compare --base a/*.json --head b/*.json
    python3 perfbench/run.py selftest

Run from anywhere; paths resolve against the checkout this script lives
in. Every argument goes to perfbench/main.exe unchanged. Build output
goes to standard error, so the last line of standard output is the
benchmark's own result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
CUSAND = os.path.join("_build", "default", "bin", "cusand.exe")


def main():
    os.chdir(ROOT)
    if shutil.which("dune") is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # the shared build cache lives outside the checkout; keep it out
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cusand.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    args = sys.argv[1:]
    if args[:1] not in (["compare"], ["selftest"]):
        args = args + ["--cusand", CUSAND]
    sys.stdout.flush()
    os.execv(MAIN, [MAIN] + args)


if __name__ == "__main__":
    sys.exit(main())
