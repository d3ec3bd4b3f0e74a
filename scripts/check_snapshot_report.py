#!/usr/bin/env python3
"""Compare a fresh bench_snapshot report with the tracked BENCH_snapshot.json.

Usage:
  check_snapshot_report.py FRESH.json [--tracked BENCH_snapshot.json]

BENCH_snapshot.json mixes wall-clock timings, which no two runs share, with
fields that are a pure function of the code: the checkpoint's payload size
and virtual time, and the ablation sweep's branch, incident, attacker-call
and virtual-time tallies. This script compares exactly those six fields of
a fresh run (bench_snapshot --jobs 1 --json FRESH.json) with the tracked
file and names every one that differs, so a change that moves them has to
regenerate the tracked file. Exit status: 0 when all six match, 1 otherwise.

Stdlib only.
"""
import argparse
import os

from bench_report_lib import fail, load_json, set_tool

set_tool("check_snapshot_report")

TRACKED = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_snapshot.json"))

FIELDS = (
    ("checkpoint", "bytes"),
    ("checkpoint", "virtual_time_us"),
    ("ablation_sweep", "branches"),
    ("ablation_sweep", "incidents"),
    ("ablation_sweep", "attacker_calls"),
    ("ablation_sweep", "virtual_us"),
)


def field(doc, path, block, name):
    section = doc.get(block)
    value = section.get(name) if isinstance(section, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        fail(f"{path}: {block}.{name} is {value!r}, want an integer")
    return value


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="report of a fresh bench_snapshot run")
    parser.add_argument("--tracked", default=TRACKED,
                        help="tracked report (default: BENCH_snapshot.json)")
    args = parser.parse_args()

    fresh = load_json(args.fresh)
    tracked = load_json(args.tracked)
    differ = []
    for block, name in FIELDS:
        want = field(tracked, args.tracked, block, name)
        got = field(fresh, args.fresh, block, name)
        if got != want:
            differ.append(f"{block}.{name}: tracked {want}, fresh {got}")
    if differ:
        fail(f"{len(differ)} of {len(FIELDS)} fields differ from "
             f"{args.tracked}: " + "; ".join(differ))
    print(f"check_snapshot_report: all {len(FIELDS)} fields match "
          f"{args.tracked}")


if __name__ == "__main__":
    main()
