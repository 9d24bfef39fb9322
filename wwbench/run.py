#!/usr/bin/env python3
"""Builds the wwbench package and runs one benchmark workload.

Usage, from the repository root:

    python3 wwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR when set, else to wwbench/target.
Cargo's own output goes to standard error, so the benchmark's result is
the last line of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("wwbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "wwbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
