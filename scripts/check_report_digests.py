#!/usr/bin/env python3
"""Check every jobs-invariant bench report against its pinned digest.

Usage:
  check_report_digests.py --build DIR [--update]

The behaviour ledger (bench/report_digests.json) lists, for each report
whose JSON is byte-identical for any --jobs value, the bench command that
writes it and the sha256 of that JSON. This script runs each command from
DIR/bench/ at --jobs 2, hashes the JSON it writes, and names every report
whose digest differs from the pinned one. An entry marked "stdout": true is
a bench that takes no --jobs or --json and whose stdout is its report: it
runs as listed and its stdout is hashed instead. A command with a directory
part (examples/quickstart) runs from DIR itself rather than DIR/bench/.
Exit status: 0 when all match, 1 when any differs or a bench fails to run.

--update rewrites the ledger with the digests just measured. Use it only
for a deliberate behaviour change, in the same change that makes it, and
explain every changed entry; never to get a failing check to pass.

Stdlib only.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

TOOL = "check_report_digests"
LEDGER = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
    "report_digests.json"))
JOBS = 2


def fail(msg):
    print(f"{TOOL}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_ledger(path):
    try:
        with open(path, encoding="utf-8") as f:
            ledger = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    reports = ledger.get("reports") if isinstance(ledger, dict) else None
    if not isinstance(reports, list) or not reports:
        fail(f"{path}: 'reports' must be a non-empty list")
    names = set()
    for entry in reports:
        if not isinstance(entry, dict):
            fail(f"{path}: report entry {entry!r} is not an object")
        name, command = entry.get("name"), entry.get("command")
        if not isinstance(name, str) or name in names:
            fail(f"{path}: report name {name!r} missing or duplicated")
        names.add(name)
        if (not isinstance(command, list) or not command
                or not all(isinstance(arg, str) for arg in command)):
            fail(f"{path}: {name}: 'command' must be a list of strings")
        if not isinstance(entry.get("stdout", False), bool):
            fail(f"{path}: {name}: 'stdout' must be true or false")
    return ledger


def measure(build, entry, scratch):
    """Runs one report's command; returns the sha256 of its JSON (or of its
    stdout, for a "stdout" entry), or None (after printing why) if the bench
    failed."""
    binary = entry["command"][0]
    if "/" not in binary:
        binary = os.path.join("bench", binary)
    binary = os.path.join(build, binary)
    argv = [binary] + entry["command"][1:]
    out = os.path.join(scratch, entry["name"] + ".json")
    to_stdout = entry.get("stdout", False)
    if not to_stdout:
        argv += ["--jobs", str(JOBS), "--json", out]
    run = subprocess.run(argv, capture_output=True, check=False)
    if run.returncode != 0 or not (to_stdout or os.path.exists(out)):
        stderr = run.stderr.decode(errors="replace")
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        print(f"{TOOL}: {entry['name']}: '{' '.join(argv)}' exited "
              f"{run.returncode}: {tail[0]}", file=sys.stderr)
        return None
    if to_stdout:
        return hashlib.sha256(run.stdout).hexdigest()
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="build tree holding bench/<binary>")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the ledger with the measured digests")
    args = parser.parse_args()

    ledger = load_ledger(LEDGER)
    differing, broken = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for entry in ledger["reports"]:
            digest = measure(args.build, entry, scratch)
            if digest is None:
                broken.append(entry["name"])
                continue
            if digest != entry.get("sha256"):
                differing.append(entry["name"])
                print(f"{TOOL}: {entry['name']}: sha256 {digest}, pinned "
                      f"{entry.get('sha256')}")
            entry["sha256"] = digest
    if broken:
        fail(f"{len(broken)} bench(es) did not write a report: "
             f"{', '.join(broken)}")
    if args.update:
        with open(LEDGER, "w", encoding="utf-8") as f:
            json.dump(ledger, f, indent=2)
            f.write("\n")
        print(f"{TOOL}: wrote {len(ledger['reports'])} digests to "
              f"{LEDGER} ({len(differing)} changed)")
        return 0
    if differing:
        fail(f"{len(differing)} of {len(ledger['reports'])} reports differ "
             f"from the ledger: {', '.join(differing)}")
    print(f"{TOOL}: OK: {len(ledger['reports'])} reports match the ledger")
    return 0


if __name__ == "__main__":
    sys.exit(main())
