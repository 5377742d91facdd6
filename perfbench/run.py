#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: sessionize, trigram_sortmerge (see BENCHMARK.json and
perfbench/PREDICTIONS.md). The first call configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to standard error, so
the last line of standard output is the JSON result. With --trace 1 the
spans are written to .bench_build/traces/<workload>-seed<n>.json
(Chrome trace-event format).
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mr", "cluster.h")):
        sys.exit("perfbench: platform sources not found under %s"
                 % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def flag_value(args, name):
    """The value of --name in either '--name v' or '--name=v' form."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def main():
    args = sys.argv[1:]
    build()
    workload = flag_value(args, "--workload")
    seed = flag_value(args, "--seed")
    if (flag_value(args, "--trace") == "1" and workload and seed
            and re.fullmatch(r"\w+", workload) and seed.isdigit()):
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(TRACE_DIR, "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
