#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-myopic --seed 1 --seconds 20 --trace 0

Every build and run artifact (Go build cache, temp files, server state,
traces) stays under .bench_build/ in the repository root. The benchmark's
output, ending with one JSON result line, goes to standard output; build
output goes to standard error. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run ends well within this; past it the benchmark is stopped and fails.
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    try:
        bench = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
