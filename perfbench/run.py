#!/usr/bin/env python3
"""Build the veriqec benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the
library sources under src/ plus veriqec_bench) into .bench_build/perfbench;
later calls only let CMake confirm the build is current. veriqec_bench's
standard output is passed through unchanged, so its last line is the
result object. `--workload all` runs the four workloads one after
another and exits non-zero if any of them failed. Build output goes to
standard error; a failed build exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "veriqec_bench")
# Every workload veriqec_bench knows. BENCHMARK.json lists all but
# prove_s9t4_j4, whose run-to-run spread is too wide to bound (README.md).
WORKLOADS = ["prove_s9t4_j1", "prove_s9t4_j4", "distance_ldpc",
             "certified_batch"]


def build():
    """Configures on first use, then builds; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "veriqec_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    args = list(argv)
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        at = args.index("--workload") + 1
        names = WORKLOADS if args[at] == "all" else [args[at]]
    else:
        names = [None]
    status = 0
    for name in names:
        run_args = list(args)
        if name is not None:
            run_args[at] = name
        code = subprocess.run([BINARY, "--commit", commit()] + run_args
                              ).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
