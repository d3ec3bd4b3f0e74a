// bench_jgr_record_overhead — regenerates §V.D.2's JGR-recording overhead
// measurement with an attacker/victim pair: below the 4,000-entry alarm
// threshold the monitor is passive (zero added latency); above it, each JGR
// add/remove costs ~1 µs of recording.
#include <cstdio>

#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"

using namespace jgre;

namespace {

// Mean virtual latency of `calls` attack IPC calls starting from the current
// system state.
double MeanCallLatencyUs(core::AndroidSystem& system,
                         attack::AttackStrategy& attacker, int calls) {
  const TimeUs before = system.clock().NowUs();
  for (int i = 0; i < calls; ++i) (void)attacker.Step(system);
  return static_cast<double>(system.clock().NowUs() - before) / calls;
}

double Run(bool with_monitor, double* below_out, double* above_out) {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender::Config config;
  // Disable the defender's reaction so we only measure the recording cost.
  config.monitor.report_threshold = 1'000'000;
  defense::JgreDefender defender(&system, config);
  if (with_monitor) {
    defender.Install();
  } else {
    // Keep the extended *driver* on in both configurations so the diff
    // isolates the runtime monitor (the driver's logging cost is Fig 10's
    // measurement, not this one).
    system.driver().SetDefenseLogging(true);
  }

  // audio.startWatchingRoutes: the flattest cost profile, so the recording
  // overhead is not drowned by handler-state growth.
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("audio", "startWatchingRoutes");
  auto attacker =
      attack::MakeFlood(attack::AttackPlan{}, *vuln, "com.evil.app");
  (void)attacker->Setup(system);

  // Phase 1: well below the alarm threshold (JGR < 4000).
  *below_out = MeanCallLatencyUs(system, *attacker, 600);
  // Drive past the alarm threshold...
  while (system.SystemServerJgrCount() < 4'500) (void)attacker->Step(system);
  // Phase 2: recording active (when the monitor is installed).
  *above_out = MeanCallLatencyUs(system, *attacker, 600);
  return *above_out - *below_out;
}

}  // namespace

int main() {
  bench::PrintBanner("JGR RECORD OVERHEAD (paper §V.D.2)",
                     "Per-operation cost of the extended runtime's JGR "
                     "recording");
  double below_off, above_off, below_on, above_on;
  Run(false, &below_off, &above_off);
  Run(true, &below_on, &above_on);

  std::printf("\n%-34s %14s %14s\n", "configuration", "below 4000 (us)",
              "above 4000 (us)");
  std::printf("%-34s %14.2f %14.2f\n", "stock runtime", below_off, above_off);
  std::printf("%-34s %14.2f %14.2f\n", "extended runtime (monitor)", below_on,
              above_on);
  // Isolate the monitor's contribution from handler-state growth by
  // differencing against the stock runtime at the same JGR counts.
  const double passive_cost = below_on - below_off;
  const double recording_cost = (above_on - above_off) - passive_cost;
  // ~2 recorded JGR adds per IPC call (proxy + death recipient).
  std::printf("\npassive monitor cost below the alarm threshold: %.2f us/call "
              "(paper: no observable delay)\n",
              passive_cost);
  std::printf("recording cost above the threshold: %.2f us per JGR operation "
              "(paper: ~1 us)\n",
              recording_cost / 2.0);
  return 0;
}
