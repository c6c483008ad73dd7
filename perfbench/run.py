#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/nyxbench.exe from source
with dune (build output goes to stderr), then runs it with the same
arguments. Its standard output passes through unchanged; the last line is
the JSON result. Exits non-zero when the build or the run fails.
"""

import glob
import os
import shutil
import subprocess
import sys


def find_dune(env):
    dune = shutil.which("dune", path=env.get("PATH"))
    if dune:
        return dune
    # An opam switch that is not on PATH: use its toolchain as a whole.
    for candidate in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        env["PATH"] = os.path.dirname(candidate) + os.pathsep + env.get("PATH", "")
        return candidate
    return None


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    dune = find_dune(env)
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    target = "./perfbench/nyxbench.exe"
    build = subprocess.run(
        [dune, "build", "--root", root, target],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "nyxbench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
