#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live-tcp --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench program (see main.go and
README.md). The Go build cache, the binary, result records and span
files all go under .bench_build/ in the checkout; the build never uses
the network.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + build.stdout)
        return 2
    cmd = [binary, "--commit", commit(root), "--out", out] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: killed after {RUN_TIMEOUT_S}s\n")
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


def commit(root: str) -> str:
    """The checkout's git commit, or "none" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


if __name__ == "__main__":
    sys.exit(main())
