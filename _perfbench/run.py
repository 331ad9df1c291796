#!/usr/bin/env python3
"""Build the benchmark from source inside the checkout, then run it.

    python3 _perfbench/run.py --workload paper-k6 --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ at the checkout root, so a run reads and writes nothing
outside the checkout apart from the Go toolchain itself. Every argument is
passed to the benchmark binary unchanged; its standard output (whose last
line is the JSON result) is passed through, and build output goes to
standard error.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
