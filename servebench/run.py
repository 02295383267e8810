#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs the benchmark.

    python3 servebench/run.py --workload embed_hot --seed 1 --seconds 10 --trace 0

Both binaries build in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. All other arguments
pass through to the `servebench` binary; see servebench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "xtree-cli"],
        ["--manifest-path", str(ROOT / "servebench" / "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"run.py: build failed: {e}", file=sys.stderr)
            return 1
    release = target / "release"
    bench = [str(release / "servebench"), "--server-bin", str(release / "xtree-cli")]
    return subprocess.run(bench + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
