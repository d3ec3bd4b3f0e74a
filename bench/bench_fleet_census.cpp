// bench_fleet_census — the fleet-scale campaign service: runs a heterogeneous
// device population (default: 324 devices — 4 JGR-table caps x 9 attack
// scenarios x 3 defense points x 3 benign populations) across the
// work-stealing pool, every device cloned from one of at most 4 warmed
// JGRESNAP boot images, and reduces the per-device EventBus streams into one
// census: p50/p90/p99 time-to-exhaustion, incident rates per scenario class,
// and the soft-reboot-within-T fraction.
//
// Sample census question the report answers directly: "across the fleet, what
// fraction of drip-profile attackers exhaust a 12,800-entry table within the
// 60 s horizon, and does the (2000, 6000) defense point catch them first?"
//
// Determinism contract: devices run --jobs-wide but land in submission order
// and the aggregator folds them in that order (its merge is bin-wise and
// order-invariant anyway), so stdout and BENCH_fleet.json are byte-identical
// for any --jobs value. --small shrinks the matrix for CI smoke runs.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/log.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"

using namespace jgre;

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fleet_census";
  spec.json_name = "fleet";
  spec.default_seed = 42;
  spec.extra_flags = {
      {"--small", false, "small CI matrix (2 caps, 3 scenarios, 24 devices)"}};
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  // kNone, not kError: hundreds of devices detonate in parallel, and their
  // ART "JNI ERROR" death rattles would interleave across workers. The
  // census itself reports the exhaustions deterministically.
  SetLogLevel(LogLevel::kNone);
  const bool small = harness::HasFlag(opts, "--small");

  bench::PrintBanner("FLEET CENSUS",
                     "Heterogeneous device fleet from warmed boot images");

  fleet::FleetMatrix matrix;
  matrix.seed = opts.seed;
  if (small) {
    // CI smoke shape: 2 caps x 3 scenarios x 2 defense points x 2 benign
    // populations = 24 devices from 2 boot images, short horizon.
    matrix.warmup_apps = 3;
    matrix.warmup_foreground_us = 1'000'000;
    matrix.jgr_caps = {12'800, 51'200};
    const std::vector<attack::AttackPlan> scenarios = fleet::DefaultScenarios();
    matrix.scenarios = {scenarios.begin(), scenarios.begin() + 3};
    // Low thresholds so the short horizon still produces incidents: the
    // toast attack's per-call cost grows (Fig 5), capping calls-per-horizon.
    matrix.defense = {{"none"}, {"defender", true, 1'000, 2'000}};
    matrix.benign_apps = {0, 2};
    matrix.max_attacker_calls = 8'000;
    matrix.horizon_us = 30'000'000;
  }
  std::vector<fleet::FleetDeviceSpec> fleet_specs = fleet::ExpandMatrix(matrix);

  fleet::FleetOptions options;
  options.jobs = opts.jobs;
  options.max_images = 4;
  fleet::FleetRunner runner(std::move(fleet_specs), options);
  if (Status status = runner.Prepare(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const fleet::FleetResult result = runner.Run();

  std::printf("\nfleet: %zu devices from %zu warmed boot images "
              "(%zu JGR-cap points)\n",
              runner.fleet().size(), result.image_count,
              matrix.jgr_caps.size());

  // Per-class console summary mirroring the census JSON.
  struct ClassRow {
    std::uint64_t devices = 0, incidents = 0, exhausted = 0, within = 0;
  };
  std::map<std::string, ClassRow> by_class;
  for (const fleet::DeviceOutcome& outcome : result.outcomes) {
    ClassRow& row = by_class[outcome.scenario_class];
    ++row.devices;
    row.incidents += outcome.incident ? 1 : 0;
    row.exhausted += outcome.exhausted ? 1 : 0;
    row.within += outcome.exhausted_within_horizon ? 1 : 0;
  }
  std::printf("\n%-10s %8s %10s %10s %18s\n", "class", "devices", "incidents",
              "exhausted", "soft_reboot<=T");
  for (const auto& [name, row] : by_class) {
    std::printf("%-10s %8llu %10llu %10llu %18llu\n", name.c_str(),
                static_cast<unsigned long long>(row.devices),
                static_cast<unsigned long long>(row.incidents),
                static_cast<unsigned long long>(row.exhausted),
                static_cast<unsigned long long>(row.within));
  }

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report
        .Set("fleet", harness::Json::Object()
                          .Set("devices", runner.fleet().size())
                          .Set("boot_images", result.image_count)
                          .Set("small", small)
                          .Set("horizon_us", matrix.horizon_us)
                          .Set("jgr_caps", matrix.jgr_caps.size())
                          .Set("max_attacker_calls", matrix.max_attacker_calls))
        .Set("census", result.aggregator.ToJson());
    if (!report.Write()) return 1;
    std::printf("\nwrote census to %s\n", opts.json_path.c_str());
  }

  // Acceptance gates: a full census covers >= 256 devices from <= 4 images;
  // the small matrix only checks the image bound.
  const bool enough_devices = small || runner.fleet().size() >= 256;
  if (!enough_devices) {
    std::fprintf(stderr, "FAIL: fleet has %zu devices (< 256)\n",
                 runner.fleet().size());
  }
  if (result.image_count > 4) {
    std::fprintf(stderr, "FAIL: fleet used %zu boot images (> 4)\n",
                 result.image_count);
  }
  return enough_devices && result.image_count <= 4 ? 0 : 1;
}
