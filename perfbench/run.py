#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload remote-rw --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary. The binary, the Go build
cache and Go's temporary files all live under the build directory
(``$CARGO_TARGET_DIR`` if set, else ``.bench_build``) inside the checkout,
so a run reads and writes nothing outside it. The last line of standard
output is the benchmark's JSON result; a failed build prints no result and
exits non-zero.
"""

import os
import shutil
import subprocess
import sys

# A run must end within 180 s; the binary gets this long before it is killed.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="-buildvcs=false", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
