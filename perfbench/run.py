#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bc-rmat|bc-weighted|serve-mixed \
        --seed N --seconds S --trace 0|1 [--smoke] [--mutate MUTATION]

The benchmark is the `mfbc-perfbench` package in this directory, built in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`). The binary
prints a host line, a metric table and, as its last stdout line, the JSON
result; a traced run (`--trace 1`) also writes its span tree as JSON lines
under `<target dir>/perfbench-spans/`. The exit code is nonzero when the
build fails or any output check fails.
"""

import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Files whose content decides what is measured, for the fingerprint of a
# checkout that is not a git repository.
SOURCE_DIRS = ("crates", "src", "stubs", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT] + list(args), capture_output=True, text=True, check=True,
    ).stdout.strip()


def source_fingerprint():
    """The git commit when there is one, marked `+dirty:<digest>` when the
    tree differs from it; else a digest of the sources alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = git("rev-parse", "HEAD")
            if git("status", "--porcelain"):
                commit += "+dirty:" + source_digest()
            return commit
        except (OSError, subprocess.CalledProcessError):
            pass
    return "sources:" + source_digest()


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(x for x in dirnames if x not in ("target", "results"))
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_fingerprint()
    cmd = [os.path.join(target, "release", "mfbc-perfbench")] + args
    if arg_value(args, "--trace") == "1":
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (arg_value(args, "--workload"), arg_value(args, "--seed"))
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        cmd += ["--spans-out", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
