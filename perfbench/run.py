#!/usr/bin/env python3
"""Build the specfetch benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark program (see perfbench/README.md). The
Go build cache, temporary files and the binary live in .bench_build/ at the
root, so the benchmark writes nothing outside the checkout. A failed build
exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Variables that would change the code built or measured without failing
    # a check: the engine core, the garbage collector's pacing, runtime
    # debugging knobs, code generation. GOMAXPROCS is left to the runtime's
    # default, the number of CPUs, which the program reports on stderr.
    env = {k: v for k, v in os.environ.items() if k not in (
        "SPECFETCH_STEPMODE", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS",
        "GOEXPERIMENT", "GOAMD64", "GOARCH", "GOOS")}
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
