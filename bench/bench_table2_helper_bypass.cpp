// bench_table2_helper_bypass — regenerates Table II and §IV.C.1: the nine
// interfaces guarded only by service-helper classes. For each interface the
// harness measures the victim's retained JGR growth twice:
//   (a) through the helper (the developer path): growth stays O(1) — the
//       helper multiplexes one transport binder or caps the lock count;
//   (b) through the raw binder interface (Code-Snippet 2): growth is
//       unbounded — the guard is circumvented entirely.
#include <cstdio>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "core/android_system.h"
#include "services/service_helpers.h"

using namespace jgre;

namespace {

constexpr int kOperations = 300;

// Exercises the helper path `kOperations` times; returns retained JGR growth.
long HelperPathGrowth(const attack::VulnSpec& vuln) {
  core::AndroidSystem system;
  system.Boot();
  std::set<std::string> permissions;
  if (!vuln.permission.empty()) permissions.insert(vuln.permission);
  services::AppProcess* app = system.InstallApp("com.dev.app", permissions);
  system.CollectAllGarbage();
  const long before = static_cast<long>(system.SystemServerJgrCount());

  if (vuln.service == "wifi") {
    services::WifiManager manager(app);
    std::vector<services::WifiManager::WifiLock> locks;
    for (int i = 0; i < kOperations; ++i) {
      auto lock = vuln.interface == "acquireWifiLock"
                      ? manager.CreateWifiLock("bench-" + std::to_string(i))
                      : manager.CreateMulticastLock("mc-" + std::to_string(i));
      (void)lock.Acquire();  // helper rolls back past MAX_ACTIVE_LOCKS
      locks.push_back(std::move(lock));
    }
  } else if (vuln.service == "clipboard") {
    services::ClipboardManager manager(app);
    for (int i = 0; i < kOperations; ++i) {
      (void)manager.AddPrimaryClipChangedListener();
    }
  } else if (vuln.service == "accessibility") {
    services::AccessibilityManager manager(app);
    for (int i = 0; i < kOperations; ++i) (void)manager.AddClient();
  } else if (vuln.service == "launcherapps") {
    services::LauncherApps manager(app);
    for (int i = 0; i < kOperations; ++i) {
      (void)manager.AddOnAppsChangedListener();
    }
  } else if (vuln.service == "tv_input") {
    services::TvInputManager manager(app);
    for (int i = 0; i < kOperations; ++i) (void)manager.RegisterCallback();
  } else if (vuln.service == "ethernet") {
    services::EthernetManager manager(app);
    for (int i = 0; i < kOperations; ++i) (void)manager.AddListener();
  } else if (vuln.service == "location") {
    services::LocationManager manager(app);
    for (int i = 0; i < kOperations; ++i) {
      if (vuln.interface == "addGpsMeasurementsListener") {
        (void)manager.AddGpsMeasurementsListener();
      } else {
        (void)manager.AddGpsNavigationMessageListener();
      }
    }
  }
  system.CollectAllGarbage();
  return static_cast<long>(system.SystemServerJgrCount()) - before;
}

// The same number of operations through the raw binder interface.
long DirectPathGrowth(const attack::VulnSpec& vuln) {
  core::AndroidSystem system;
  system.Boot();
  auto attacker = attack::MakeFlood(attack::AttackPlan{}, vuln, "com.evil.app");
  if (!attacker->Setup(system).ok()) return 0;
  system.CollectAllGarbage();
  const long before = static_cast<long>(system.SystemServerJgrCount());
  for (int i = 0; i < kOperations; ++i) (void)attacker->Step(system);
  system.CollectAllGarbage();
  return static_cast<long>(system.SystemServerJgrCount()) - before;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "TABLE II",
      "Vulnerable IPC interfaces 'protected' by service helper classes");
  std::printf("\n%d operations per path; retained JGR growth in "
              "system_server after GC\n\n",
              kOperations);
  std::printf("%-14s %-34s %12s %12s  %s\n", "Service", "Interface",
              "via helper", "direct IPC", "verdict");
  int bypassed = 0;
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (vuln.protection != attack::Protection::kHelperClass) continue;
    const long helper_growth = HelperPathGrowth(vuln);
    const long direct_growth = DirectPathGrowth(vuln);
    // Bypassed = the direct path retains per-call (unbounded) while the
    // helper path stays bounded (O(1) transport or O(cap) locks).
    const bool bypass =
        direct_growth >= kOperations && helper_growth <= kOperations / 2;
    if (bypass) ++bypassed;
    std::printf("%-14s %-34s %12ld %12ld  %s\n", vuln.service.c_str(),
                vuln.interface.c_str(), helper_growth, direct_growth,
                bypass ? "GUARD BYPASSED" : "guard holds");
  }
  std::printf("\n%d/9 helper-guarded interfaces exploitable via direct "
              "binder calls (paper: 9/9)\n",
              bypassed);
  return 0;
}
