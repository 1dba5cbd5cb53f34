#!/usr/bin/env python3
"""Build the vpbench benchmark from source and run it once.

Run from the root of a checkout:

    python3 vpbench/run.py --workload serve-bulk --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, module cache, temporary files, toolchain config and the
binary all live in .bench_build/ inside the checkout, so the build writes
nothing outside it. The binary's last line of standard output is the
JSON result; build output goes to standard error.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print(
            "vpbench: %s is not a full checkout (no go.mod or internal/ next to the benchmark)" % root,
            file=sys.stderr,
        )
        return 2
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "vpbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench_dir, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("vpbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
