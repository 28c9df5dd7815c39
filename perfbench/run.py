#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-heavy --seed 1 --seconds 10 --trace 0

The library and the benchmark binary are built from source into
.bench_build/ (CMake, Release) on first use; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Results,
the host/config fingerprint and, with --trace 1, the span file are written to
.bench_out/. Exits non-zero, without a result, when the sources are missing or
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: library sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
        check=True,
        stdout=sys.stderr,
    )


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [BINARY, *sys.argv[1:], "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
