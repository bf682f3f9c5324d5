#!/usr/bin/env python3
"""Build and run the layer-by-layer benchmark.

    python3 perfbench/run.py --workload bf-immediate --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build; later runs only re-check the build.
Every other flag goes to the benchmark binary unchanged (see main.cpp).
The binary's standard output is passed through, so the last line is
its JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "evaluator.hpp")):
        sys.exit("perfbench: library sources not found under "
                 + os.path.join(ROOT, "src"))
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(base, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        sys.exit("perfbench: build failed: %s" % exc)
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(base, "perfbench-out")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
