#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cg-tasks --seed 1 --seconds 20 --trace 0

The Go program is built from this checkout's sources into .bench_build/, with
the Go build cache, temporary files and configuration kept there too, so a run
reads and writes nothing else of the checkout. Arguments go to the program
unchanged, and its run report is written under .bench_build/perfbench/runs/.
The last line of standard output is the program's JSON result. If the build
fails, the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")


def go_env():
    env = dict(os.environ)
    for name in ("gocache", "tmp", "config", "modcache"):
        os.makedirs(os.path.join(BUILD, name), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "modcache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def main():
    os.makedirs(OUT, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    except OSError as err:
        print(f"perfbench: cannot run the Go toolchain: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY, "--out", os.path.join(OUT, "runs")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
