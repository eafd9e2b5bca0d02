#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload cp_nell2|cp_nell1|serve_mixed \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set, else
to .bench_build/perfbench; it is incremental, so only the first run compiles.
Build output goes to stderr; the benchmark's own output (notes, then the
result JSON as the last line) goes to stdout. The exit code is the
benchmark's: 0 when every correctness check passed, non-zero otherwise or
when the build fails.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.call([os.path.join(build, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
