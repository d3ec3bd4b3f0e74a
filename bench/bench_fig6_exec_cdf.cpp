// bench_fig6_exec_cdf — regenerates Fig 6: the CDF of execution time over
// 1,000 IPC calls for each of the 54 vulnerable interfaces. Observation 2:
// at low state sizes every interface's duration is Delay + Δ with stable
// Delay and small Δ, so the aggregate CDF is tight (paper: ~0–8,000 µs).
//
// Harness-driven: one simulation per interface (a 1,000-call flood stepped
// by experiment::Drive, whose per-step observer times each call), fanned out
// --jobs-wide; the aggregate CDF is merged from per-task results in
// submission order, so it (and everything else printed) is byte-identical
// for any --jobs value.
#include <cstdio>

#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/stats.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "sim/device.h"

using namespace jgre;

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fig6_exec_cdf";
  spec.default_seed = 42;
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  bench::PrintBanner("FIGURE 6",
                     "CDF of execution time, 54 interfaces x 1000 calls");
  const auto vulns = attack::SystemServerVulnerabilities();
  const auto results = harness::RunOrdered<Summary>(
      vulns.size(), opts.jobs, [&](std::size_t i) {
        sim::DeviceSpec device_spec;
        device_spec.WithSeed(opts.seed)
            .WithAttack(vulns[i])
            .WithMaxAttackerCalls(1000);
        auto device = sim::DeviceFactory(device_spec).CreateDevice();
        Summary exec_times_us;
        bench::DriveFlood(*device, bench::TimeOkCalls(*device, &exec_times_us));
        return exec_times_us;
      });

  Summary all;
  harness::Json json_rows = harness::Json::Array();
  std::printf("\n%-20s %-40s %8s %8s %8s\n", "service", "interface", "p50_us",
              "p95_us", "max_us");
  for (std::size_t i = 0; i < vulns.size(); ++i) {
    const attack::VulnSpec& vuln = vulns[i];
    const Summary& exec_times_us = results[i];
    std::printf("%-20s %-40s %8.0f %8.0f %8.0f\n", vuln.service.c_str(),
                vuln.interface.c_str(), exec_times_us.Percentile(50),
                exec_times_us.Percentile(95), exec_times_us.max());
    for (double t : exec_times_us.samples()) all.Add(t);
    json_rows.Push(harness::Json::Object()
                       .Set("service", vuln.service)
                       .Set("interface", vuln.interface)
                       .Set("p50_us", exec_times_us.Percentile(50))
                       .Set("p95_us", exec_times_us.Percentile(95))
                       .Set("max_us", exec_times_us.max()));
  }

  std::printf("\naggregate CDF over %zu samples:\n", all.count());
  std::printf("exec_time_us,cumulative_probability\n");
  harness::Json cdf = harness::Json::Array();
  for (const auto& [value, prob] : all.Cdf(40)) {
    std::printf("%.0f,%.3f\n", value, prob);
    cdf.Push(harness::Json::Array().Push(value).Push(prob));
  }
  std::printf("\nrange %.0f–%.0f us (paper Fig 6 x-axis: 0–8000 us)\n",
              all.min(), all.max());

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("rows", std::move(json_rows))
        .Set("aggregate_cdf", std::move(cdf))
        .Set("summary", harness::Json::Object()
                            .Set("samples", all.count())
                            .Set("min_us", all.min())
                            .Set("max_us", all.max()));
    if (!report.Write()) return 1;
  }
  return 0;
}
