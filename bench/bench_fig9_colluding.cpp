// bench_fig9_colluding — regenerates Fig 9 / §V.C "Detecting Multiple
// Colluding Attacks": four colluding apps each abuse a different vulnerable
// interface while a benign app fires IPC at random 0–100 ms intervals. The
// top-4 suspicious-call counts must belong to the four attackers for every
// tested Δ ∈ {79, 1900, 3583} µs.
//
// One simulation scored three ways — --trace captures its full timeline and
// --metrics its event tallies.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/rng.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "harness/obs_json.h"
#include "sim/device.h"

using namespace jgre;

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fig9_colluding";
  spec.default_seed = 42;
  spec.supports_trace = true;
  spec.supports_metrics = true;
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  bench::PrintBanner("FIGURE 9",
                     "Colluding attackers: suspicious IPC calls by top-5 apps "
                     "for three deltas");
  // High report threshold: gather data without triggering recovery so the
  // same recording can be scored under all three Δ values.
  defense::JgreDefender::Config defender_config;
  defender_config.monitor.report_threshold = 1'000'000;
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(opts.seed)
      .WithBenignApps(1)
      .WithDefenderConfig(defender_config);
  if (!opts.trace_path.empty()) device_spec.WithTrace();
  if (opts.emit_metrics) device_spec.WithMetrics();
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  defense::JgreDefender& defender = *device->defender();
  attack::BenignWorkload& benign = *device->benign();

  const std::vector<std::pair<const char*, const char*>> targets = {
      {"clipboard", "addPrimaryClipChangedListener"},
      {"audio", "startWatchingRoutes"},
      {"media_router", "registerClientAsUser"},
      {"mount", "registerListener"},
  };
  std::vector<std::unique_ptr<attack::AttackStrategy>> attackers;
  std::vector<std::string> attacker_packages;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const attack::VulnSpec* vuln =
        attack::FindVulnerability(targets[i].first, targets[i].second);
    const std::string package = "com.colluder.app" + std::to_string(i);
    attackers.push_back(
        attack::MakeFlood(attack::AttackPlan{}, *vuln, package));
    if (!attackers.back()->Setup(system).ok()) return 1;
    attacker_packages.push_back(package);
  }
  services::AppProcess* chatty = system.FindApp(benign.packages().front());

  // Run until the victim accumulated a solid recording (~14k JGRs).
  Rng rng(opts.seed + 35);  // default seed keeps the historical stream (77)
  TimeUs benign_next = system.clock().NowUs();
  while (system.SystemServerJgrCount() < 16'000) {
    for (auto& attacker : attackers) {
      (void)attacker->Step(system);
      system.clock().AdvanceUs(rng.UniformU64(1500));
    }
    if (system.clock().NowUs() >= benign_next) {
      benign.ChattyQueryLoop(chatty, 1, 0);
      benign_next = system.clock().NowUs() + rng.UniformU64(100'000);
    }
  }

  defense::JgrMonitor* monitor = defender.MonitorFor("system_server");
  bool all_separated = true;
  harness::Json json_deltas = harness::Json::Array();
  for (DurationUs delta : {79u, 1900u, 3583u}) {
    defense::ScoringParams params;
    params.delta_us = delta;
    auto ranking =
        defender.RankApps(*monitor, system.system_server_pid(), params);
    std::printf("\nDelta = %llu us — top-5 apps by suspicious IPC calls:\n",
                static_cast<unsigned long long>(delta));
    int shown = 0;
    int attackers_in_top4 = 0;
    harness::Json json_top = harness::Json::Array();
    for (const auto& entry : ranking) {
      if (shown++ >= 5) break;
      const bool is_attacker =
          std::find(attacker_packages.begin(), attacker_packages.end(),
                    entry.package) != attacker_packages.end();
      if (shown <= 4 && is_attacker) ++attackers_in_top4;
      std::printf("  uid %d  %-22s score=%-8lld (%s)\n", entry.uid.value(),
                  entry.package.c_str(),
                  static_cast<long long>(entry.score),
                  is_attacker ? "malicious" : "benign");
      json_top.Push(harness::Json::Object()
                        .Set("uid", entry.uid.value())
                        .Set("package", entry.package)
                        .Set("score", entry.score)
                        .Set("malicious", is_attacker));
    }
    std::printf("  -> top-4 are all attackers: %s\n",
                attackers_in_top4 == 4 ? "YES" : "NO");
    if (attackers_in_top4 != 4) all_separated = false;
    json_deltas.Push(harness::Json::Object()
                         .Set("delta_us", delta)
                         .Set("attackers_in_top4", attackers_in_top4)
                         .Set("top5", std::move(json_top)));
  }
  std::printf("\npaper: for each delta the four malicious apps' counts are "
              "significantly larger than the benign app's\n");

  if (!opts.trace_path.empty()) {
    if (!device->WriteChromeTrace(opts.trace_path)) {
      std::fprintf(stderr, "error: could not write %s\n",
                   opts.trace_path.c_str());
      return 1;
    }
    std::printf("wrote Chrome-trace timeline to %s\n",
                opts.trace_path.c_str());
  }
  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("deltas", std::move(json_deltas))
        .Set("summary",
             harness::Json::Object().Set("all_separated", all_separated));
    if (opts.emit_metrics && device->metrics() != nullptr) {
      report.Set("metrics", harness::MetricsToJson(*device->metrics()));
    }
    if (!report.Write()) return 1;
  }
  return all_separated ? 0 : 1;
}
