#!/usr/bin/env python3
"""Validate BENCH_detect.json emitted by bench_detect_census.

Usage:
  validate_detections.py BENCH_detect.json [--min-multi-modal N]

Checks the BenchReport envelope (jobs-invariant marker required), then
recomputes the fusion contract from the ranked findings themselves:

* Census consistency — sift_detections == pipeline_candidates (the hunt
  accuses exactly the analysis report's candidates), oracle_detections ==
  fuzz_findings (one confirmed accusation per finding), ranked_findings and
  multi_modal_findings recompute from ranked[], hunt_hits recompute from
  the per-finding detections, by_certainty recomputes from the lattice.
* Lattice law — every finding's certainty equals its base_certainty raised
  one step per evidence modality beyond the first, saturating at confirmed;
  base_certainty is the strongest single accusation in the group.
* Provenance — has_witness/has_trace/has_reproducer are the OR of the
  group's detections, and every fleet-hunt detection carries a trace slice.
* Canonical order — findings sorted by (certainty desc, modalities desc,
  key), detections within a group sorted by hunt id.

Stdlib only.
"""
import argparse

from bench_report_lib import check_envelope, fail, load_json, require, set_tool

set_tool("validate_detections")

LATTICE = {"hypothetical": 0, "weak": 1, "strong": 2, "confirmed": 3}
LATTICE_TOP = 3
FLEET_HUNTS = {"defense.alarm-report", "followup.slow-drip",
               "followup.death-churn"}


def certainty_rank(value, ctx):
    if value not in LATTICE:
        fail(f"{ctx}: certainty {value!r} not in {sorted(LATTICE)}")
    return LATTICE[value]


def check_finding(finding, i):
    ctx = f"ranked[{i}]"
    if not isinstance(finding, dict):
        fail(f"{ctx}: not an object")
    key = require(finding, "key", str, ctx)
    require(finding, "service", str, ctx)
    require(finding, "method", str, ctx)
    certainty = certainty_rank(require(finding, "certainty", str, ctx), ctx)
    base = certainty_rank(require(finding, "base_certainty", str, ctx), ctx)
    for field in ("has_witness", "has_trace", "has_reproducer"):
        require(finding, field, bool, ctx)
    hunts = require(finding, "hunts", list, ctx)
    detections = require(finding, "detections", list, ctx)
    if not detections:
        fail(f"{ctx}: empty detections[]")
    if hunts != [d.get("hunt") for d in detections]:
        fail(f"{ctx}: hunts[] does not mirror detections[].hunt")
    if hunts != sorted(hunts):
        fail(f"{ctx}: detections not in canonical (hunt id) order")

    saw_witness = saw_trace = saw_reproducer = False
    strongest = 0
    for j, det in enumerate(detections):
        dctx = f"{ctx}.detections[{j}]"
        if not isinstance(det, dict):
            fail(f"{dctx}: not an object")
        hunt = require(det, "hunt", str, dctx)
        if require(det, "key", str, dctx) != key:
            fail(f"{dctx}: key {det['key']!r} differs from group key {key!r}")
        strongest = max(strongest, certainty_rank(
            require(det, "certainty", str, dctx), dctx))
        require(det, "note", str, dctx)
        saw_witness = saw_witness or "witness" in det
        saw_trace = saw_trace or "trace" in det
        saw_reproducer = saw_reproducer or "reproducer" in det
        if hunt in FLEET_HUNTS:
            if "trace" not in det:
                fail(f"{dctx}: fleet hunt {hunt} without a trace slice")
            if not det["note"]:
                fail(f"{dctx}: fleet hunt {hunt} with an empty note")

    if strongest != base:
        fail(f"{ctx}: base_certainty {base} != strongest detection "
             f"certainty {strongest}")
    for field, saw in (("has_witness", saw_witness), ("has_trace", saw_trace),
                       ("has_reproducer", saw_reproducer)):
        if finding[field] != saw:
            fail(f"{ctx}: {field} is {finding[field]}, but the detections "
                 f"say {saw}")
    modalities = int(saw_witness) + int(saw_trace) + int(saw_reproducer)
    expected = min(LATTICE_TOP, base + max(0, modalities - 1))
    if certainty != expected:
        fail(f"{ctx}: certainty {finding['certainty']!r} violates the "
             f"lattice law: base {finding['base_certainty']!r} + "
             f"{modalities} modality(ies) should give rank {expected}")
    return key, certainty, modalities


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--min-multi-modal", type=int, default=1,
                        help="findings that must fuse >= 2 evidence kinds")
    args = parser.parse_args()

    doc = load_json(args.report)
    check_envelope(doc, args.report, schema="jgre.bench.detect_census/v1",
                   schema_version=1, bench="detect_census",
                   jobs_invariant=True)

    census = require(doc, "census", dict, args.report)
    for field in ("pipeline_candidates", "sift_detections", "fuzz_findings",
                  "oracle_detections", "fleet_devices", "ranked_findings",
                  "multi_modal_findings"):
        if require(census, field, int, "census") < 0:
            fail(f"census.{field} is negative")
    if census["sift_detections"] != census["pipeline_candidates"]:
        fail(f"sift hunt found {census['sift_detections']} detections but "
             f"the analysis report has {census['pipeline_candidates']} "
             "candidates — the hunt must accuse exactly those")
    if census["oracle_detections"] != census["fuzz_findings"]:
        fail(f"oracle hunt emitted {census['oracle_detections']} detections "
             f"for {census['fuzz_findings']} fuzz findings — it must accuse "
             "each finding exactly once")

    hunt_hits = require(doc, "hunt_hits", dict, args.report)
    for hunt, hits in hunt_hits.items():
        if not isinstance(hits, int) or hits < 0:
            fail(f"hunt_hits[{hunt}] is {hits!r}, want non-negative integer")

    ranked = require(doc, "ranked", list, args.report)
    if census["ranked_findings"] != len(ranked):
        fail(f"census.ranked_findings {census['ranked_findings']} != "
             f"len(ranked) {len(ranked)}")

    seen_keys = set()
    observed_hits = {}
    observed_certainty = {}
    multi_modal = 0
    prev = None
    for i, finding in enumerate(ranked):
        key, certainty, modalities = check_finding(finding, i)
        if key in seen_keys:
            fail(f"ranked[{i}]: duplicate finding key {key!r} — the fuser "
                 "must join on interface identity")
        seen_keys.add(key)
        for det in finding["detections"]:
            observed_hits[det["hunt"]] = observed_hits.get(det["hunt"], 0) + 1
        name = finding["certainty"]
        observed_certainty[name] = observed_certainty.get(name, 0) + 1
        if modalities >= 2:
            multi_modal += 1
        order = (-certainty, -modalities, key)
        if prev is not None and order < prev:
            fail(f"ranked[{i}]: out of order — findings must sort by "
                 "(certainty desc, modalities desc, key)")
        prev = order

    if observed_hits != hunt_hits:
        fail(f"hunt_hits {hunt_hits} does not recompute from ranked "
             f"detections {observed_hits}")
    by_certainty = require(doc, "by_certainty", dict, args.report)
    if observed_certainty != by_certainty:
        fail(f"by_certainty {by_certainty} does not recompute from ranked "
             f"findings {observed_certainty}")
    if census["multi_modal_findings"] != multi_modal:
        fail(f"census.multi_modal_findings {census['multi_modal_findings']} "
             f"!= recomputed {multi_modal}")
    if multi_modal < args.min_multi_modal:
        fail(f"only {multi_modal} multi-modal finding(s), want >= "
             f"{args.min_multi_modal}")
    for hunt in ("followup.slow-drip", "followup.death-churn"):
        if observed_hits.get(hunt, 0) < 1:
            fail(f"follow-up hunt {hunt} produced no detections")

    print(f"validate_detections: OK: {args.report}: {len(ranked)} findings "
          f"from {len(observed_hits)} hunts, {multi_modal} multi-modal, "
          f"lattice and ranking laws hold")


if __name__ == "__main__":
    main()
