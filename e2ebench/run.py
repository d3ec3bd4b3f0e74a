#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver and runs one workload.

    python3 e2ebench/run.py --workload fuzz --seed 42 --seconds 10 --trace 0

Paths are resolved from this file, so it runs from any directory. The
first run configures and builds the driver together with the simulator
libraries under src/ into .bench_build/ (CMake, Release, all output on
stderr); later runs only bring that build up to date. The driver's last
line on stdout is the result JSON. With --trace 1 the recorded spans are
also written as a Chrome trace to .bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fuzz", "fleet", "matrix", "paper")


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"error: no simulator sources at {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2e_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "e2e_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
