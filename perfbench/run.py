#!/usr/bin/env python3
"""Build and run the two-clock softcache benchmark.

    python3 perfbench/run.py --workload fit --seed 0 --seconds 10 --trace 0

Builds perfbench/main.exe from source with dune (release profile) in the
repository that contains this script, then runs it with the given
arguments from the repository root. The last line of standard output is
the result as one JSON object. Exits non-zero, without a result, when
the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    # dune from PATH, else through the opam switch
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--profile", "release",
                "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
