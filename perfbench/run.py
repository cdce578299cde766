#!/usr/bin/env python3
"""Builds the perfbench binary from the sources in this checkout and runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench
(Release); a second run reuses it. Build output goes to stderr; the
binary's summary and its one-line JSON result go to stdout. With
--trace 1 the recorded spans are also written to
.bench_build/perfbench/spans-<workload>-<seed>.json. Any further flags
(--size, --inject_delay, --perturb; see README.md) are passed through.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("batch_cora", "search_scan", "stream_window", "approx_large")


def build():
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no library sources next to {HERE.name}/ "
              "(CMakeLists.txt and src/ missing)", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace_out",
                str(BUILD / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd + passthrough, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
