#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train-ce --seed 1 --seconds 30 --trace 0

The benchmark is the Go module in this directory; it imports the
repository's packages through a replace directive, so it builds from the
sources next to it. The binary, the Go build cache and temporary files all
go under .bench_build/ in the repository root, and the traced run's spans
under .bench_build/perfbench/. Arguments are passed to the binary
unchanged; README.md describes them. When the build fails the script exits
non-zero without printing a result.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def revision():
    """The checked-out git commit, or a digest of the Go sources when the
    tree is not a git checkout. Reads only files inside the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["GOPATH"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    child = subprocess.Popen([binary, "--commit", revision()] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
