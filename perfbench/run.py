#!/usr/bin/env python3
"""Builds the mthfx end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build (the repository's src/ libraries plus perfbench/*.cpp, Release)
goes to .bench_build/; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
0 only when every operation passed its correctness gate.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def build(env):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "mthfx_perfbench", "-j4"],
        stdout=sys.stderr, check=True, env=env)
    return os.path.join(BUILD_DIR, "mthfx_perfbench")


def main():
    # Temporary files of the compiler and the benchmark stay in the
    # build directory.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
