// bench_fig3_attack_curves — regenerates Fig 3: the victim's JGR entry count
// over time for all 54 vulnerable system-service interfaces, each driven to
// the 51,200-entry overflow. Prints a per-interface summary (duration,
// calls, JGR rate) plus downsampled curves for plotting.
//
// Paper shape: every curve climbs to ~51,200; durations span ~100 s (audio
// startWatchingRoutes) to ~1,800 s (notification enqueueToast).
//
// Harness-driven: each interface's attack is an independent simulation (its
// own device + seed, the flood stepped by experiment::Drive, whose per-step
// observer samples the curve), run --jobs-wide via the work-stealing pool.
// Results are collected in submission order, so stdout and the JSON file are
// byte-identical for any --jobs value. --metrics folds each simulation's
// event stream into one registry (merged in submission order — same bytes
// for any --jobs); --trace writes a Chrome-trace timeline of one *defended*
// enqueueToast attack, a single dedicated simulation whose bytes depend only
// on the seed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/stats.h"
#include "experiment/experiment.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "harness/obs_json.h"
#include "obs/metrics.h"
#include "sim/device.h"

using namespace jgre;

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fig3_attack_curves";
  spec.default_seed = 42;
  spec.supports_trace = true;
  spec.supports_metrics = true;
  spec.extra_flags = {
      {"--curves", false, "print the full per-interface CSV series"}};
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  const bool print_curves = harness::HasFlag(opts, "--curves");

  bench::PrintBanner("FIGURE 3",
                     "Misuse effectiveness of the 54 vulnerable interfaces");
  const auto vulns = attack::SystemServerVulnerabilities();
  struct TaskResult {
    int calls = 0;
    DurationUs duration_us = 0;
    std::size_t peak_jgr = 0;
    bool overflowed = false;
    TimeSeries jgr_curve{"victim_jgr"};
    obs::MetricsRegistry metrics;
  };
  const auto results = harness::RunOrdered<TaskResult>(
      vulns.size(), opts.jobs, [&](std::size_t i) {
        sim::DeviceSpec device_spec;
        device_spec.WithSeed(opts.seed)
            .WithAttack(vulns[i])
            .WithMaxAttackerCalls(bench::kOverflowMaxCalls);
        if (opts.emit_metrics) device_spec.WithMetrics();
        auto device = sim::DeviceFactory(device_spec).CreateDevice();
        core::AndroidSystem& system = device->system();
        attack::AttackStrategy& attacker = *device->attacker();
        TaskResult out;
        out.jgr_curve.Add(system.clock().NowUs(),
                          static_cast<double>(system.SystemServerJgrCount()));
        const experiment::DriveResult drive =
            bench::DriveFlood(*device, [&](TimeUs) {
              const std::size_t jgr = system.SystemServerJgrCount();
              out.peak_jgr = std::max(out.peak_jgr, jgr);
              if (attacker.stats().calls_issued % 500 == 0) {
                out.jgr_curve.Add(system.clock().NowUs(),
                                  static_cast<double>(jgr));
              }
            });
        out.calls = attacker.stats().calls_issued;
        out.duration_us = drive.virtual_duration_us;
        out.overflowed = drive.soft_rebooted;
        if (device->metrics() != nullptr) out.metrics = *device->metrics();
        return out;
      });

  struct Row {
    const attack::VulnSpec* vuln;
    const TaskResult* result;
  };
  std::vector<Row> rows;
  rows.reserve(vulns.size());
  for (std::size_t i = 0; i < vulns.size(); ++i) {
    rows.push_back(Row{&vulns[i], &results[i]});
  }
  // stable_sort: rows with equal durations keep registry order, so the table
  // is reproducible independent of how the sort breaks ties.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.result->duration_us < b.result->duration_us;
  });

  std::printf("\n%-3s %-20s %-40s %9s %8s %9s %s\n", "#", "service",
              "interface", "calls", "dur_s", "peak_jgr", "overflow");
  DurationUs min_duration = ~0ULL, max_duration = 0;
  int succeeded = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (row.result->overflowed) {
      ++succeeded;
      min_duration = std::min(min_duration, row.result->duration_us);
      max_duration = std::max(max_duration, row.result->duration_us);
    }
    std::printf("%-3zu %-20s %-40s %9d %8.1f %9zu %s\n", i + 1,
                row.vuln->service.c_str(), row.vuln->interface.c_str(),
                row.result->calls, row.result->duration_us / 1e6,
                row.result->peak_jgr, row.result->overflowed ? "YES" : "no");
  }
  std::printf("\n%d/54 attacks overflowed the table (paper: 54/54); attack "
              "durations %.0f–%.0f s (paper: ~100–1800 s)\n",
              succeeded, min_duration / 1e6, max_duration / 1e6);

  if (print_curves) {
    std::printf("\n# CSV curves (time_s, jgr_count) per interface\n");
    for (const Row& row : rows) {
      std::printf("\n# %s.%s\n", row.vuln->service.c_str(),
                  row.vuln->interface.c_str());
      const TimeSeries downsampled = row.result->jgr_curve.Downsample(40);
      for (const auto& [t, v] : downsampled.points()) {
        std::printf("%.1f,%.0f\n", t / 1e6, v);
      }
    }
  } else {
    std::printf("(run with --curves for the full per-interface CSV series)\n");
  }

  if (!opts.trace_path.empty()) {
    // One dedicated *defended* run of the flawed enqueueToast interface: its
    // timeline shows the jgr climb, the attacker's ipc bursts, and the
    // defense alarm/report/kill/recovery annotations. Independent of the
    // table's 54 undefended simulations, so the bytes are identical for any
    // --jobs.
    const attack::VulnSpec* toast =
        attack::FindVulnerability("notification", "enqueueToast");
    if (toast == nullptr ||
        !bench::WriteDefendedAttackTrace(*toast, opts.seed,
                                         /*benign_apps=*/10,
                                         opts.trace_path)) {
      std::fprintf(stderr, "error: could not write %s\n",
                   opts.trace_path.c_str());
      return 1;
    }
    std::printf("wrote Chrome-trace timeline (defended enqueueToast) to %s\n",
                opts.trace_path.c_str());
  }

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    harness::Json json_rows = harness::Json::Array();
    for (const Row& row : rows) {
      harness::Json r = harness::Json::Object();
      r.Set("service", row.vuln->service)
          .Set("interface", row.vuln->interface)
          .Set("calls", row.result->calls)
          .Set("duration_us", row.result->duration_us)
          .Set("peak_jgr", row.result->peak_jgr)
          .Set("overflowed", row.result->overflowed);
      harness::Json curve = harness::Json::Array();
      const TimeSeries downsampled = row.result->jgr_curve.Downsample(40);
      for (const auto& [t, v] : downsampled.points()) {
        curve.Push(harness::Json::Array().Push(t).Push(v));
      }
      r.Set("jgr_curve", std::move(curve));
      json_rows.Push(std::move(r));
    }
    report.Set("rows", std::move(json_rows));
    report.Set("summary", harness::Json::Object()
                              .Set("overflowed", succeeded)
                              .Set("total", static_cast<int>(rows.size()))
                              .Set("min_duration_us", min_duration)
                              .Set("max_duration_us", max_duration));
    if (opts.emit_metrics) {
      // Per-task registries merged in submission (registry) order: the
      // merged table is byte-identical for any --jobs.
      obs::MetricsRegistry merged;
      for (const TaskResult& task : results) merged.Merge(task.metrics);
      report.Set("metrics", harness::MetricsToJson(merged));
    }
    if (!report.Write()) return 1;
  }
  return succeeded == 54 ? 0 : 1;
}
