// bench_detect_census — the full detection census: every hunt in the standard
// battery over every evidence modality one run can produce, fused into one
// ranked finding list.
//
//   1. Static pass: boot + model + taint pipeline (via the fuzz campaign's
//      Prepare), then the sift-rule hunt over the analysis report. Gate: the
//      hunt accuses exactly the pipeline's candidate census — the port must
//      not change a single verdict.
//   2. Fuzz pass: a seeded coverage-guided campaign, then the oracle hunt
//      re-judging its findings at the confirm/screen bars.
//   3. Fleet pass: a 6-device matrix (flood / drip / churn, defense off/on)
//      whose per-device probes feed the trace-driven hunts — the defender's
//      alarm-report port plus the two follow-up evasion hunts (slow-drip,
//      death-recipient churn). Gate: each follow-up hunt lands at least one
//      detection with full trace provenance.
//   4. Fusion: every detection joins on interface identity (the fleet pass
//      resolves raw (descriptor, code) pairs through the default catalog);
//      certainty upgrades one lattice step per extra corroborating modality.
//
// Determinism contract: the campaign splits its budget deterministically,
// fleet devices land in submission order, hunts are pure functions of their
// sources, and the fuser's output is canonical — BENCH_detect.json is
// byte-identical for any --jobs value.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/log.h"
#include "detect/catalog.h"
#include "detect/fuser.h"
#include "detect/hunts.h"
#include "detect/registry.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "fuzz/campaign.h"
#include "harness/bench_report.h"
#include "harness/json.h"

using namespace jgre;

namespace {

// The fleet slice of the census: one JGR cap, the three scenario profiles
// the trace hunts exist for, defense off and on. The alarm point sits above
// the churn oscillation peak but below the flood's retained climb, so the
// flood alarms while the evasion profiles stay under it.
fleet::FleetMatrix DetectFleetMatrix(std::uint64_t seed) {
  fleet::FleetMatrix matrix;
  matrix.seed = seed;
  matrix.warmup_apps = 2;
  matrix.warmup_foreground_us = 500'000;
  matrix.jgr_caps = {12'800};
  const attack::AttackPlan flood = fleet::DefaultScenarios()[1];  // toast
  attack::AttackPlan drip = flood;
  drip.think_time_us = 40'000;
  attack::AttackPlan churn = flood;
  churn.vuln_id = attack::kChurnVulnId;
  churn.think_time_us = 4'000;
  matrix.scenarios = {flood, drip, churn};
  matrix.defense = {{"none"}, {"defender", true, 3'200, 400}};
  matrix.benign_apps = {1};
  matrix.max_attacker_calls = 4'000;
  matrix.horizon_us = 10'000'000;
  return matrix;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "detect_census";
  spec.json_name = "detect";
  spec.default_seed = 42;
  spec.extra_flags = {
      {"--budget", true, "fuzz screening executions (default 48)"},
      {"--list-hunts", false,
       "print each hunt id with its declared data sources and exit"}};
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  if (std::find(opts.extra.begin(), opts.extra.end(), "--list-hunts") !=
      opts.extra.end()) {
    const detect::HuntRegistry battery = detect::HuntRegistry::WithDefaultHunts();
    std::printf("%-32s %-24s %s\n", "HUNT", "REQUIRES", "DESCRIPTION");
    for (const auto& hunt : battery.hunts()) {
      std::string requires_list;
      for (unsigned bit = 0; bit < 8; ++bit) {
        if ((hunt->required_sources() & (1u << bit)) == 0) continue;
        if (!requires_list.empty()) requires_list += "+";
        requires_list +=
            detect::DataSourceName(static_cast<detect::DataSource>(bit));
      }
      std::printf("%-32s %-24s %.*s\n", std::string(hunt->id()).c_str(),
                  requires_list.c_str(),
                  static_cast<int>(hunt->description().size()),
                  hunt->description().data());
    }
    return 0;
  }
  // Fleet devices detonate in parallel; their death rattles would interleave
  // across workers. The census reports the outcomes deterministically.
  SetLogLevel(LogLevel::kNone);

  int budget = 48;
  if (!harness::IntFlag(opts, "--budget", &budget)) return 2;

  bench::PrintBanner("DETECTION CENSUS",
                     "Hunt battery over static, fuzz, and fleet evidence");
  // --jobs deliberately not echoed: stdout is part of the determinism
  // contract and must be byte-identical for any worker count.
  std::printf("\nseed %llu, fuzz budget %d\n",
              static_cast<unsigned long long>(opts.seed), budget);

  // --- 1+2. static pipeline + fuzz campaign ---------------------------------
  fuzz::CampaignOptions campaign_options;
  campaign_options.seed = opts.seed;
  campaign_options.jobs = opts.jobs;
  campaign_options.budget = budget;
  campaign_options.seed_from_analysis = true;
  fuzz::CampaignRunner campaign(campaign_options);
  if (Status status = campaign.Prepare(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const fuzz::CampaignResult fuzz_result = campaign.Run();

  const detect::HuntRegistry registry = detect::HuntRegistry::WithDefaultHunts();
  detect::DetectionFuser fuser;
  std::map<std::string, std::uint64_t> hits_by_hunt;

  detect::DataSources static_sources;
  static_sources.code_model = &campaign.model();
  static_sources.analysis = &campaign.report();
  std::vector<detect::HuntRunStats> static_stats;
  const std::vector<detect::Detection> static_detections =
      registry.RunAll(static_sources, detect::Scope{}, &static_stats);

  detect::DataSources fuzz_sources;
  fuzz_sources.fuzz_findings = &fuzz_result.findings;
  const std::vector<detect::Detection> fuzz_detections =
      registry.RunAll(fuzz_sources, detect::Scope{});

  const std::size_t census_size = campaign.report().Candidates().size();
  std::printf("\nstatic pass: %zu sift-rule detections (census %zu)\n",
              static_detections.size(), census_size);
  std::printf("fuzz pass: %zu findings -> %zu oracle detections\n",
              fuzz_result.findings.size(), fuzz_detections.size());

  // --- 3. fleet pass --------------------------------------------------------
  const detect::InterfaceCatalog catalog =
      detect::BuildDefaultCatalog(&campaign.report());
  fleet::FleetOptions fleet_options;
  fleet_options.jobs = opts.jobs;
  fleet_options.catalog = &catalog;
  fleet::FleetRunner fleet_runner(fleet::ExpandMatrix(DetectFleetMatrix(opts.seed)),
                                  fleet_options);
  const fleet::FleetResult fleet_result = fleet_runner.Run();

  std::uint64_t churn_hits = 0, drip_hits = 0, alarm_hits = 0;
  bool provenance_ok = true;
  for (const fleet::DeviceOutcome& outcome : fleet_result.outcomes) {
    for (const detect::Detection& d : outcome.detections) {
      ++hits_by_hunt[d.hunt];
      if (d.hunt == "followup.death-churn") ++churn_hits;
      if (d.hunt == "followup.slow-drip") ++drip_hits;
      if (d.hunt == "defense.alarm-report") ++alarm_hits;
      if (!d.has_trace() || d.note.empty()) provenance_ok = false;
      fuser.Add(d);
    }
  }
  std::printf("fleet pass: %zu devices, alarm-report %llu, slow-drip %llu, "
              "death-churn %llu\n",
              fleet_result.outcomes.size(),
              static_cast<unsigned long long>(alarm_hits),
              static_cast<unsigned long long>(drip_hits),
              static_cast<unsigned long long>(churn_hits));

  // --- 4. fusion ------------------------------------------------------------
  for (const detect::Detection& d : static_detections) {
    ++hits_by_hunt[d.hunt];
    fuser.Add(d);
  }
  for (const detect::Detection& d : fuzz_detections) {
    ++hits_by_hunt[d.hunt];
    fuser.Add(d);
  }
  const std::vector<detect::RankedFinding> ranked = fuser.Ranked();

  std::map<std::string, int> by_certainty;
  int multi_modal = 0;
  for (const detect::RankedFinding& finding : ranked) {
    ++by_certainty[std::string(detect::CertaintyName(finding.certainty))];
    if (finding.evidence_modalities() >= 2) ++multi_modal;
  }
  std::printf("\nfused: %zu ranked findings (%d with >= 2 evidence "
              "modalities)\n",
              ranked.size(), multi_modal);
  std::printf("\n%-44s %-12s %-10s %s\n", "FINDING", "CERTAINTY", "MODALITIES",
              "HUNTS");
  const std::size_t shown = std::min<std::size_t>(ranked.size(), 12);
  for (std::size_t i = 0; i < shown; ++i) {
    const detect::RankedFinding& f = ranked[i];
    std::string hunts;
    for (const detect::Detection& d : f.detections) {
      if (!hunts.empty()) hunts += ",";
      hunts += d.hunt;
    }
    std::printf("%-44s %-12s %-10d %s\n", f.key.c_str(),
                std::string(detect::CertaintyName(f.certainty)).c_str(),
                f.evidence_modalities(), hunts.c_str());
  }
  if (ranked.size() > shown) {
    std::printf("... and %zu more\n", ranked.size() - shown);
  }

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    harness::Json hunts_json = harness::Json::Object();
    for (const auto& [hunt, hits] : hits_by_hunt) {
      hunts_json.Set(hunt, hits);
    }
    harness::Json certainty_json = harness::Json::Object();
    for (const auto& [name, count] : by_certainty) {
      certainty_json.Set(name, count);
    }
    harness::Json ranked_json = harness::Json::Array();
    for (const detect::RankedFinding& finding : ranked) {
      ranked_json.Push(finding.ToJson());
    }
    report
        .Set("census",
             harness::Json::Object()
                 .Set("pipeline_candidates", census_size)
                 .Set("sift_detections", static_detections.size())
                 .Set("fuzz_findings", fuzz_result.findings.size())
                 .Set("oracle_detections", fuzz_detections.size())
                 .Set("fleet_devices", fleet_result.outcomes.size())
                 .Set("ranked_findings", ranked.size())
                 .Set("multi_modal_findings", multi_modal))
        .Set("hunt_hits", std::move(hunts_json))
        .Set("by_certainty", std::move(certainty_json))
        .Set("ranked", std::move(ranked_json));
    if (!report.Write()) return 1;
    std::printf("\nwrote census to %s\n", opts.json_path.c_str());
  }

  // Acceptance gates.
  bool ok = true;
  if (static_detections.size() != census_size) {
    std::fprintf(stderr,
                 "FAIL: sift hunt accused %zu interfaces, census has %zu\n",
                 static_detections.size(), census_size);
    ok = false;
  }
  if (churn_hits < 1) {
    std::fprintf(stderr, "FAIL: death-churn hunt found nothing on the fleet\n");
    ok = false;
  }
  if (drip_hits < 1) {
    std::fprintf(stderr, "FAIL: slow-drip hunt found nothing on the fleet\n");
    ok = false;
  }
  if (!provenance_ok) {
    std::fprintf(stderr, "FAIL: a fleet detection lacks trace provenance\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
