// bench_fig5_exec_growth — regenerates Fig 5: the execution duration of
// telephony.registry.listenForSubscriber() over the course of an attack.
// Each call appends a Record that later calls must scan, so per-call time
// grows roughly linearly with the invocation index (paper: ~50 ms by the end
// of the attack) while staying stable early on (Observation 2).
//
// Factory-driven: the device and its flood come from sim::DeviceFactory
// (shared CLI: --seed/--json); experiment::Drive runs the flood to overflow
// and its per-step observer times every call that succeeds.
#include <algorithm>
#include <cstdio>

#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/log.h"
#include "common/stats.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "sim/device.h"

using namespace jgre;

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fig5_exec_growth";
  spec.default_seed = 42;
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  SetLogLevel(LogLevel::kError);

  bench::PrintBanner(
      "FIGURE 5",
      "Execution duration of telephony.registry.listenForSubscriber during "
      "an attack");
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("telephony.registry", "listenForSubscriber");
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(opts.seed)
      .WithAttack(*vuln)
      .WithMaxAttackerCalls(bench::kOverflowMaxCalls);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  Summary exec_times_us;
  const experiment::DriveResult drive =
      bench::DriveFlood(*device, bench::TimeOkCalls(*device, &exec_times_us));
  const attack::StrategyStats& stats = device->attacker()->stats();

  const auto& times = exec_times_us.samples();
  std::printf("\nattack issued %d calls before overflow (paper: 50,236 — "
              "ours retains 2 JGRs per call vs the paper's 1, so half the "
              "calls suffice)\n\n",
              stats.calls_issued);
  std::printf("call_index,exec_time_us\n");
  harness::Json rows = harness::Json::Array();
  const std::size_t stride = std::max<std::size_t>(1, times.size() / 100);
  for (std::size_t i = 0; i < times.size(); i += stride) {
    std::printf("%zu,%.0f\n", i, times[i]);
    rows.Push(harness::Json::Object()
                  .Set("call_index", i)
                  .Set("exec_time_us", times[i]));
  }
  harness::BenchReport report(spec.name, opts);
  report.Set("calls_issued", stats.calls_issued).Set("curve", std::move(rows));
  if (times.size() > 100) {
    const double first = times.front();
    // The final call's sample includes the soft-reboot downtime it triggered;
    // report the call just before the overflow instead.
    const double late = times[times.size() - 50];
    std::printf("\nexec time of call #0: ~%.0f us; near overflow: ~%.0f us "
                "(paper: ~200 us -> ~50,000 us; growth is linear in stored "
                "records)\n",
                first, late);
    report.Set("first_call_us", first).Set("near_overflow_us", late);
  }
  if (!report.Write()) return 1;
  return drive.soft_rebooted ? 0 : 1;
}
