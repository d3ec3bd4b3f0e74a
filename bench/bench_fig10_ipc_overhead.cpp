// bench_fig10_ipc_overhead — regenerates Fig 10 / §V.D.2: the latency added
// to IPC calls by the defense's extended binder driver, measured by
// delivering byte arrays of increasing size (500 rounds, +1,024 bytes per
// round) with the defense off and on.
//
// Paper shape: both curves grow with payload; the defense adds at most
// ~1.247 ms per call (~46.7% on average).
//
// Factory-driven: every simulated device comes from sim::DeviceFactory
// (shared CLI: --seed/--json). The virtual-time sweep is the JSON report.
// The second half times the *real* (wall-clock) cost of the simulator's
// transaction path at representative payloads with std::chrono::steady_clock
// and prints it to the console only.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/android_system.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "services/safe_service.h"
#include "sim/device.h"

using namespace jgre;

namespace {

using Clock = std::chrono::steady_clock;

// Each wall-clock configuration is timed for at least this long.
constexpr double kMinTimedSeconds = 0.2;

// Virtual per-call latency for a payload of `kb` KiB.
DurationUs MeasureCall(core::AndroidSystem& system,
                       services::AppProcess* app, std::uint64_t kb) {
  auto client = app->GetService("dropbox", "android.os.IdropboxService");
  const TimeUs before = system.clock().NowUs();
  (void)client.value().Call(services::GenericSafeService::TRANSACTION_query,
                            [&](binder::Parcel& p) {
                              p.WriteInt32(0);
                              p.WriteByteArray(kb * 1024);
                            });
  return system.clock().NowUs() - before;
}

harness::Json RunVirtualSweep(std::uint64_t seed) {
  bench::PrintBanner("FIGURE 10",
                     "IPC latency vs payload, stock vs defense-extended "
                     "driver (virtual time)");
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(seed);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  services::AppProcess* app = system.InstallApp("com.payload.app");

  std::printf("\npayload_kb,stock_us,defense_us,overhead_us\n");
  harness::Json rows = harness::Json::Array();
  double max_overhead_us = 0;
  double sum_ratio = 0;
  int count = 0;
  for (std::uint64_t kb = 0; kb <= 500; kb += 10) {
    system.driver().SetDefenseLogging(false);
    const DurationUs stock = MeasureCall(system, app, kb);
    system.driver().SetDefenseLogging(true);
    const DurationUs defended = MeasureCall(system, app, kb);
    const double overhead = static_cast<double>(defended - stock);
    max_overhead_us = std::max(max_overhead_us, overhead);
    sum_ratio += overhead / static_cast<double>(stock);
    ++count;
    std::printf("%llu,%llu,%llu,%.0f\n",
                static_cast<unsigned long long>(kb),
                static_cast<unsigned long long>(stock),
                static_cast<unsigned long long>(defended), overhead);
    rows.Push(harness::Json::Object()
                  .Set("payload_kb", kb)
                  .Set("stock_us", stock)
                  .Set("defense_us", defended)
                  .Set("overhead_us", overhead));
  }
  const double mean_ratio = sum_ratio / count;
  std::printf("\nmax overhead: %.3f ms/call (paper: 1.247 ms); mean overhead "
              "ratio: %.1f%% (paper: ~46.7%%)\n",
              max_overhead_us / 1000.0, 100.0 * mean_ratio);
  return harness::Json::Object()
      .Set("rows", std::move(rows))
      .Set("max_overhead_us", max_overhead_us)
      .Set("mean_overhead_ratio", mean_ratio);
}

// Real wall-clock cost of the simulated transaction path: mean µs per
// MeasureCall at `kb` KiB with defense logging on or off.
double TimeTransactUs(std::uint64_t seed, std::uint64_t kb, bool defense) {
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(seed);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  services::AppProcess* app = system.InstallApp("com.bench.app");
  system.driver().SetDefenseLogging(defense);
  int calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  while (elapsed < kMinTimedSeconds) {
    (void)MeasureCall(system, app, kb);
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return 1e6 * elapsed / calls;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fig10_ipc_overhead";
  spec.default_seed = 42;
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  harness::Json sweep = RunVirtualSweep(opts.seed);

  std::printf("\nwall-clock cost of the simulated transaction path "
              "(console only):\n%10s %10s %12s\n",
              "payload_kb", "defense", "us_per_call");
  for (const std::uint64_t kb : {0, 256, 500}) {
    for (const bool defense : {false, true}) {
      const double us = TimeTransactUs(opts.seed, kb, defense);
      std::printf("%10llu %10s %12.3f\n", static_cast<unsigned long long>(kb),
                  defense ? "on" : "off", us);
    }
  }

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("sweep", std::move(sweep));
    if (!report.Write()) return 1;
  }
  return 0;
}
