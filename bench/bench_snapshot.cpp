// bench_snapshot — measures the checkpoint/restore subsystem itself:
//   * checkpoint payload size and manifest fields for the standard ablation
//     prefix (boot + the full Fig-4 top-300 benign warmup),
//   * wall-clock capture and restore latency, both into a fresh boot and
//     in place over a system that ran since the capture (the restore every
//     pooled campaign reset makes), and
//   * the end-to-end speedup BranchRunner buys bench_ablation_thresholds'
//     14-point sweep over the --cold baseline that re-simulates the shared
//     prefix per point (the figure of merit: warm mode amortizes one prefix
//     across every branch, so the sweep should run several times faster).
//
// The sweep replicates bench_ablation_thresholds' branch configurations
// exactly (report-threshold, alarm-false-positive, and delta sweeps) so the
// recorded speedup is the speedup of that bench. --checkpoint/--resume are
// honored for the warm runner, so CI can exercise the file round-trip here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "experiment/experiment.h"
#include "harness/bench_report.h"
#include "harness/branch_runner.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

using namespace jgre;

namespace {

using WallClock = std::chrono::steady_clock;

double MsSince(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Per-mode tally over the 14 branch configurations of
// bench_ablation_thresholds: a warm (restored) sweep must reproduce the
// cold sweep's results exactly, so the whole tally is compared, not just
// the incident count.
struct SweepTally {
  int incidents = 0;
  long long attacker_calls = 0;
  unsigned long long virtual_us = 0;
  bool operator==(const SweepTally&) const = default;
};

// Runs the 14 branch configurations of bench_ablation_thresholds on
// `runner` and tallies what the branches simulated.
SweepTally RunAblationBranches(harness::BranchRunner& runner,
                               const sim::DeviceSpec& prefix) {
  SweepTally tally;
  const auto tally_attack = [&tally](
                                const std::vector<
                                    experiment::DefendedAttackResult>& runs) {
    for (const auto& result : runs) {
      tally.incidents += result.incident ? 1 : 0;
      tally.attacker_calls += result.attacker_calls;
      tally.virtual_us += result.virtual_duration_us;
    }
  };
  const attack::VulnSpec& clipboard = *attack::FindVulnerability(
      "clipboard", "addPrimaryClipChangedListener");
  const std::vector<std::size_t> thresholds = {6'000u, 8'000u, 12'000u,
                                               20'000u, 30'000u};
  tally_attack(runner.Run<experiment::DefendedAttackResult>(
      thresholds.size(),
      [&](std::size_t i) {
        sim::DeviceSpec config = prefix;
        defense::JgreDefender::Config defender;
        defender.monitor.report_threshold = thresholds[i];
        config.WithAttack(clipboard).WithDefenderConfig(defender);
        return config;
      },
      [](std::size_t, sim::DeviceSim& device) {
        return experiment::Experiment(device).RunDefendedAttack();
      }));
  const std::vector<std::size_t> alarms = {1'500u, 2'500u, 4'000u, 8'000u};
  for (int v : runner.Run<int>(
           alarms.size(),
           [&](std::size_t i) {
             sim::DeviceSpec config = prefix;
             defense::JgreDefender::Config defender;
             defender.monitor.alarm_threshold = alarms[i];
             defender.monitor.report_threshold = 800;
             config.WithDefenderConfig(defender);
             return config;
           },
           [&](std::size_t, sim::DeviceSim& device) {
             attack::BenignWorkload::Options benign_options;
             benign_options.app_count = 60;
             benign_options.per_app_foreground_us = 12'000'000;
             benign_options.interaction_period_us = 50'000;
             benign_options.seed = prefix.seed() + 1;
             attack::BenignWorkload workload(&device.system(), benign_options);
             workload.InstallAll();
             workload.RunMonkeySession();
             return static_cast<int>(device.defender()->incidents().size());
           })) {
    tally.incidents += v;
  }
  const std::vector<DurationUs> deltas = {79u, 500u, 1'800u, 3'583u, 8'000u};
  const attack::VulnSpec& audio =
      *attack::FindVulnerability("audio", "startWatchingRoutes");
  tally_attack(runner.Run<experiment::DefendedAttackResult>(
      deltas.size(),
      [&](std::size_t i) {
        sim::DeviceSpec config = prefix;
        defense::JgreDefender::Config defender;
        defender.scoring.delta_us = deltas[i];
        config.WithBenignApps(30).WithAttack(audio).WithDefenderConfig(
            defender);
        return config;
      },
      [](std::size_t, sim::DeviceSim& device) {
        return experiment::Experiment(device).RunDefendedAttack();
      }));
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "snapshot";
  spec.default_seed = 42;
  spec.extra_flags = harness::BranchFlags();
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  SetLogLevel(LogLevel::kError);

  bench::PrintBanner("SNAPSHOT",
                     "Checkpoint size, save/restore latency, and the "
                     "BranchRunner sweep speedup");
  sim::DeviceSpec prefix;
  prefix.WithSeed(opts.seed).WithWarmup(300, 120'000'000, 50'000);

  // --- capture/restore latency on the standard prefix ---
  auto prefix_start = WallClock::now();
  std::unique_ptr<core::AndroidSystem> prefix_system =
      sim::DeviceFactory(prefix).BootPrefix();
  const double prefix_ms = MsSince(prefix_start);

  constexpr int kReps = 5;
  std::vector<double> capture_samples;
  std::optional<snapshot::SystemSnapshot> snapshot;
  for (int i = 0; i < kReps; ++i) {
    auto start = WallClock::now();
    auto captured = snapshot::SystemSnapshot::Capture(*prefix_system);
    capture_samples.push_back(MsSince(start));
    if (!captured.ok()) {
      std::fprintf(stderr, "capture failed: %s\n",
                   captured.status().ToString().c_str());
      return 1;
    }
    snapshot = std::move(captured).value();
  }
  std::vector<double> restore_samples;
  for (int i = 0; i < kReps; ++i) {
    auto start = WallClock::now();
    core::SystemConfig sys_config = prefix.system_config();
    sys_config.seed = prefix.seed();
    core::AndroidSystem restored(sys_config);
    restored.Boot();
    Status status = snapshot->RestoreInto(&restored);
    restore_samples.push_back(MsSince(start));
    if (!status.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  // In place, as campaigns restore: over one system that ran since the
  // capture (an app installed and a binder minted before each restore).
  std::vector<double> in_place_samples;
  {
    core::SystemConfig sys_config = prefix.system_config();
    sys_config.seed = prefix.seed();
    core::AndroidSystem reused(sys_config);
    reused.Boot();
    Status status = snapshot->RestoreInto(&reused);
    for (int i = 0; i < kReps && status.ok(); ++i) {
      reused.InstallApp(StrCat("com.example.ran.since", i))
          ->NewBinder("bench.IRanSince");
      auto start = WallClock::now();
      status = snapshot->RestoreInto(&reused);
      in_place_samples.push_back(MsSince(start));
    }
    if (!status.ok()) {
      std::fprintf(stderr, "in-place restore failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const double capture_ms = MedianMs(capture_samples);
  const double restore_ms = MedianMs(restore_samples);
  const double restore_in_place_ms = MedianMs(in_place_samples);
  const snapshot::SnapshotManifest& manifest = snapshot->manifest();
  std::printf("\nprefix build: %.1f ms (boot + top-300 benign warmup)\n",
              prefix_ms);
  std::printf("checkpoint: %llu bytes at virtual t=%llu us\n",
              static_cast<unsigned long long>(manifest.byte_size),
              static_cast<unsigned long long>(manifest.virtual_time_us));
  std::printf("capture: %.2f ms (median of %d); restore (boot + patch): "
              "%.2f ms (median of %d); restore in place: %.2f ms (median of "
              "%d)\n",
              capture_ms, kReps, restore_ms, kReps, restore_in_place_ms,
              kReps);
  prefix_system.reset();

  // --- warm vs cold ablation sweep (14 branches) ---
  harness::BranchOptions warm_options = harness::BranchOptionsFromHarness(opts);
  harness::BranchOptions cold_options = warm_options;
  cold_options.cold = true;
  cold_options.checkpoint_path.clear();
  cold_options.resume_path.clear();

  harness::BranchRunner warm_runner(prefix, warm_options);
  auto warm_start = WallClock::now();
  // The timed region includes the warm prefix build + capture (Prepare):
  // the speedup is end-to-end, not just the branch phase. Prepare here also
  // surfaces a bad --resume image as a CLI error rather than an uncaught
  // exception out of the first sweep.
  if (Status status = warm_runner.Prepare(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const SweepTally warm_tally = RunAblationBranches(warm_runner, prefix);
  const double warm_ms = MsSince(warm_start);

  harness::BranchRunner cold_runner(prefix, cold_options);
  auto cold_start = WallClock::now();
  const SweepTally cold_tally = RunAblationBranches(cold_runner, prefix);
  const double cold_ms = MsSince(cold_start);

  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  std::printf("\nablation sweep (14 branches, --jobs %d):\n", opts.jobs);
  std::printf("  cold (prefix per branch): %.1f ms\n", cold_ms);
  std::printf("  warm (shared checkpoint): %.1f ms\n", warm_ms);
  std::printf("  speedup: %.2fx (target: >= 3x)\n", speedup);
  if (!(warm_tally == cold_tally)) {
    std::fprintf(stderr,
                 "warm/cold sweep mismatch (incidents %d vs %d, calls %lld "
                 "vs %lld, virtual us %llu vs %llu) — branches diverged\n",
                 warm_tally.incidents, cold_tally.incidents,
                 warm_tally.attacker_calls, cold_tally.attacker_calls,
                 warm_tally.virtual_us, cold_tally.virtual_us);
    return 1;
  }
  std::printf("  incidents %d, attacker calls %lld, virtual time %.1f s "
              "(identical warm and cold)\n",
              warm_tally.incidents, warm_tally.attacker_calls,
              warm_tally.virtual_us / 1e6);

  if (opts.emit_json) {
    // Wall-clock bench: timings depend on the worker count, so the resolved
    // --jobs is stamped into the envelope (record_jobs).
    harness::BenchReport report(spec.name, opts, /*schema_version=*/1,
                                /*record_jobs=*/true);
    report.Set("checkpoint",
             harness::Json::Object()
                 .Set("bytes", manifest.byte_size)
                 .Set("virtual_time_us", manifest.virtual_time_us)
                 .Set("prefix_build_ms", prefix_ms)
                 .Set("capture_ms", capture_ms)
                 .Set("restore_ms", restore_ms)
                 .Set("restore_in_place_ms", restore_in_place_ms))
        .Set("ablation_sweep",
             harness::Json::Object()
                 .Set("branches", 14)
                 .Set("cold_ms", cold_ms)
                 .Set("warm_ms", warm_ms)
                 .Set("speedup", speedup)
                 .Set("incidents", warm_tally.incidents)
                 .Set("attacker_calls", warm_tally.attacker_calls)
                 .Set("virtual_us", warm_tally.virtual_us));
    if (!report.Write()) return 1;
  }
  return speedup >= 3.0 ? 0 : 1;
}
