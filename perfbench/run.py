#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload spec-loops --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see README.md). The Go
build cache, the binary and the reports all live under .bench_build/ in
the current directory, so nothing outside it is written.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("run.py: no go.mod here; run from the repository root", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        # The vet-module workload's loader compiles export data with cgo
        # off; building the same way lets both share the cache.
        "CGO_ENABLED": "0",
    })
    for d in ("bin", "gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    rc = subprocess.call(["go", "build", "-o", binary, "./_bench"], cwd=bench, env=env,
                         stdout=sys.stderr)
    if rc != 0:
        print("run.py: build failed", file=sys.stderr)
        return rc
    return subprocess.call([binary, "-root", root] + sys.argv[1:], env=env)


if __name__ == "__main__":
    sys.exit(main())
