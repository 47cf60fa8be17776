#!/usr/bin/env python3
"""Builds the ozzbench harness from this checkout and runs one workload.

    python3 ozzbench/run.py --workload campaign|hunt|replay|syscalls \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ozzbench;
build output goes to stderr so that the last line of stdout is the harness's
JSON result. Exits non-zero, printing no result, when the build fails (for
example when the repository sources are absent).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "ozzbench"))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "ozzbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("ozzbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        args += ["--spans-out", os.path.join(BUILD_DIR, "spans-%s.json" % workload)]
    return subprocess.run([os.path.join(BUILD_DIR, "ozzbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
