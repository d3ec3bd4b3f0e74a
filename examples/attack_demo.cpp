// attack_demo — the paper's §II.A scenario end to end: a zero-permission app
// exhausts system_server's JNI global reference table through the clipboard
// service and soft-reboots the device; then the same attack is repeated with
// the JGRE defense installed and is stopped cold.
//
//   ./build/examples/attack_demo
#include <algorithm>
#include <cstdio>

#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "experiment/experiment.h"
#include "sim/device.h"

using namespace jgre;

namespace {

void RunScenario(bool with_defense) {
  std::printf("\n=== %s ===\n",
              with_defense ? "WITH JGRE DEFENSE" : "STOCK ANDROID 6.0.1");
  sim::DeviceSpec spec;
  spec.WithDefense(with_defense);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();

  // The paper's Code-Snippet 2 flood, from a zero-permission app.
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("clipboard", "addPrimaryClipChangedListener");
  attack::AttackPlan plan;
  plan.max_calls = 200'000;
  auto attacker = attack::MakeFlood(plan, *vuln, "com.evil.clipboard");
  if (!attacker->Setup(system).ok()) return;
  services::AppProcess* evil = system.FindApp("com.evil.clipboard");
  std::printf("attacker installed (uid %d), no permissions requested\n",
              evil->uid().value());

  // Until the device soft-reboots, the defender raises an incident, or
  // 4,000 s of virtual time pass.
  std::size_t peak_jgr = 0;
  const experiment::DriveResult result = experiment::Drive(
      *device, attacker.get(), experiment::StopRule::kFirstIncident,
      system.clock().NowUs() + 4'000'000'000ULL, [&](TimeUs) {
        peak_jgr = std::max(peak_jgr, system.SystemServerJgrCount());
      });

  std::printf("attack issued %d IPC calls over %.1f s (virtual)\n",
              attacker->stats().calls_issued,
              result.virtual_duration_us / 1e6);
  std::printf("peak victim JGR count: %zu / 51200\n", peak_jgr);
  if (result.soft_rebooted) {
    std::printf(">>> system_server runtime aborted -> SOFT REBOOT "
                "(the whole device restarted)\n");
  } else if (result.incident && result.attacker_killed) {
    std::printf(">>> attack failed: the defender identified and killed the "
                "attacker\n");
    for (const auto& incident : device->defender()->incidents()) {
      std::printf("    incident: victim=%s, response delay %.1f ms, "
                  "killed=[",
                  incident.victim.c_str(),
                  incident.response_delay_us() / 1e3);
      for (const auto& pkg : incident.killed_packages) {
        std::printf("%s", pkg.c_str());
      }
      std::printf("], JGR %zu -> %zu\n", incident.jgr_at_report,
                  incident.jgr_after_recovery);
    }
  }
  std::printf("final system_server JGR: %zu; soft reboots: %lld\n",
              system.SystemServerJgrCount(),
              static_cast<long long>(system.soft_reboots()));
}

}  // namespace

int main() {
  RunScenario(/*with_defense=*/false);
  RunScenario(/*with_defense=*/true);
  return 0;
}
