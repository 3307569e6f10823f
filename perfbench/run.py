#!/usr/bin/env python3
"""Build the simulator benchmark offline, then run it once.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) outside the repository's workspace; it is built
with the root manifest's [patch.crates-io] stand-ins passed on the
command line, into $CARGO_TARGET_DIR (default: .bench_build). Build
output goes to standard error; the run's own output, ending in one JSON
line, goes to standard output. The exit code is the run's, or the
build's when the build fails.
"""

import os
import subprocess
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def patch_args():
    """--config flags that mirror the root manifest's [patch.crates-io]."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        patches = tomllib.load(f).get("patch", {}).get("crates-io", {})
    args = []
    for name, spec in sorted(patches.items()):
        args += ["--config", f'patch.crates-io.{name}.path="{spec["path"]}"']
    return args


def build():
    """Builds the benchmark; returns the binary's path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST]
    try:
        cmd += patch_args()
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except (OSError, KeyError, tomllib.TOMLDecodeError) as e:
        print(f"perfbench: cannot build: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "hb-perfbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
