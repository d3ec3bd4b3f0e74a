#!/usr/bin/env python3
"""Validate BENCH_fuzz.json emitted by bench_fuzz_campaign.

Usage:
  validate_fuzz_findings.py BENCH_fuzz.json [--min-refound N]
  validate_fuzz_findings.py --compare-findings A.json B.json

Schema mode checks the blocks CI keys on: the campaign stats, every finding
record (id/service/method/kind/growth/minimized witness length), and the
consistency report — including the zero-tolerance rule that no finding may
contradict the directed-verifier census. --min-refound asserts the smoke
campaign re-found at least N census interfaces.

Compare mode checks the determinism contract: two runs at the same seed and
budget (any --jobs) must agree on the deterministic blocks (findings,
consistency, seeding) byte for byte, and on every campaign count (the
executions per phase, suspects, corpus entries and signature elements);
the wall-clock fields (campaign wall_ms and execs_per_sec, throughput) are
exempt. Stdlib only.
"""
import argparse

from bench_report_lib import fail, load_json as load, require, set_tool

set_tool("validate_fuzz_findings")

KINDS = {"jgr_exhaustion", "fd_exhaustion", "abort"}
# Campaign fields that time the run rather than count its work.
CAMPAIGN_WALL_CLOCK = {"wall_ms", "execs_per_sec"}


def check_schema(doc, path, min_refound):
    require(doc, "bench", str, path)
    require(doc, "seed", int, path)
    require(doc, "budget", int, path)

    campaign = require(doc, "campaign", dict, path)
    for field in ("seed_executions", "screen_executions", "confirm_executions",
                  "minimize_executions", "total_executions", "suspects",
                  "corpus_entries", "signature_elements"):
        value = require(campaign, field, int, "campaign")
        if value < 0:
            fail(f"campaign.{field} is negative")
    if campaign["total_executions"] != (campaign["seed_executions"] +
                                        campaign["screen_executions"] +
                                        campaign["confirm_executions"] +
                                        campaign["minimize_executions"]):
        fail("campaign.total_executions does not add up")
    require(campaign, "wall_ms", (int, float), "campaign")
    require(campaign, "execs_per_sec", (int, float), "campaign")

    findings = require(doc, "findings", list, path)
    seen = set()
    for i, f in enumerate(findings):
        ctx = f"findings[{i}]"
        if not isinstance(f, dict):
            fail(f"{ctx}: not an object")
        fid = require(f, "id", str, ctx)
        require(f, "service", str, ctx)
        require(f, "method", str, ctx)
        kind = require(f, "kind", str, ctx)
        if kind not in KINDS:
            fail(f"{ctx}: kind {kind!r} not in {sorted(KINDS)}")
        growth = require(f, "growth_per_call", (int, float), ctx)
        if kind != "abort" and growth <= 0:
            fail(f"{ctx}: non-abort finding with growth_per_call {growth}")
        minimized = require(f, "minimized_calls", int, ctx)
        if minimized < 1:
            fail(f"{ctx}: minimized_calls {minimized} < 1")
        if fid in seen:
            fail(f"{ctx}: duplicate finding id {fid}")
        seen.add(fid)
    if [f["id"] for f in findings] != sorted(f["id"] for f in findings):
        fail("findings are not sorted by id")

    consistency = require(doc, "consistency", dict, path)
    census_total = require(consistency, "census_total", int, "consistency")
    refound = require(consistency, "refound", list, "consistency")
    not_refound = require(consistency, "not_refound", list, "consistency")
    false_positives = require(consistency, "false_positives", list,
                              "consistency")
    require(consistency, "static_blind", list, "consistency")
    if consistency.get("refound_count") != len(refound):
        fail("consistency.refound_count disagrees with refound[]")
    if len(refound) + len(not_refound) != census_total:
        fail(f"refound ({len(refound)}) + not_refound ({len(not_refound)}) "
             f"!= census_total ({census_total})")
    for rid in refound:
        if rid not in seen:
            fail(f"consistency.refound lists {rid} but findings do not")
    if false_positives:
        fail(f"{len(false_positives)} false positive(s): {false_positives}")
    if len(refound) < min_refound:
        fail(f"re-found {len(refound)} census interfaces, need >= "
             f"{min_refound}")

    seeding = require(doc, "seeding", dict, path)
    for field in ("seed_executions", "seeded_refound", "unseeded_refound",
                  "unseeded_findings"):
        if require(seeding, field, int, "seeding") < 0:
            fail(f"seeding.{field} is negative")
    if seeding["seeded_refound"] != len(refound):
        fail("seeding.seeded_refound disagrees with consistency.refound[]")

    throughput = require(doc, "throughput", dict, path)
    for field in ("warm_execs_per_sec", "cold_execs_per_sec", "speedup"):
        require(throughput, field, (int, float), "throughput")

    print(f"validate_fuzz_findings: OK: {path}: {len(findings)} findings, "
          f"{len(refound)}/{census_total} census re-found, 0 false positives")


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    for block in ("seed", "budget", "findings", "consistency", "seeding"):
        if a.get(block) != b.get(block):
            fail(f"deterministic block {block!r} differs between "
                 f"{path_a} and {path_b}")
    campaign_a = require(a, "campaign", dict, path_a)
    campaign_b = require(b, "campaign", dict, path_b)
    for field in sorted((campaign_a.keys() | campaign_b.keys()) -
                        CAMPAIGN_WALL_CLOCK):
        if campaign_a.get(field) != campaign_b.get(field):
            fail(f"campaign.{field} differs between {path_a} "
                 f"({campaign_a.get(field)}) and {path_b} "
                 f"({campaign_b.get(field)})")
    print(f"validate_fuzz_findings: OK: {path_a} and {path_b} agree on "
          "findings, consistency and campaign counts")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+")
    parser.add_argument("--min-refound", type=int, default=0)
    parser.add_argument("--compare-findings", action="store_true",
                        help="compare the deterministic blocks of two runs")
    args = parser.parse_args()

    if args.compare_findings:
        if len(args.files) != 2:
            fail("--compare-findings needs exactly two files")
        compare(args.files[0], args.files[1])
    else:
        if len(args.files) != 1:
            fail("schema mode takes exactly one file")
        check_schema(load(args.files[0]), args.files[0], args.min_refound)


if __name__ == "__main__":
    main()
