#!/usr/bin/env python3
"""Build and run the nabbench benchmark from the root of a checkout.

    python3 nabbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build (binary, build cache, module cache) goes under the directory
named by CARGO_TARGET_DIR, default .bench_build, so nothing is written
outside the checkout. Arguments are passed to the benchmark binary
unchanged; its output and exit code are the benchmark's.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(build, "nabbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("nabbench: build failed", file=sys.stderr)
        return built.returncode or 1
    work = os.path.join(build, "nabbench-work")
    history = os.path.join(os.path.relpath(here, root), "history", "results.jsonl")
    run = subprocess.run([binary, "--workdir", work, "--history", history] + sys.argv[1:],
                         cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
