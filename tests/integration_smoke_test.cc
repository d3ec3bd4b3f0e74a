// End-to-end smoke tests: the attack detonates, the defense defuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "experiment/experiment.h"
#include "runtime/java_vm_ext.h"
#include "sim/device.h"

namespace jgre {
namespace {

TEST(BootSmoke, RegistersTheFullServiceCensus) {
  core::AndroidSystem system;
  system.Boot();
  // 104 system services + 3 app-hosted services (gatt, adapter, picotts).
  EXPECT_EQ(system.service_manager().ServiceCount(), 104u + 3u);
  EXPECT_GT(system.SystemServerJgrCount(), 1000u);
  EXPECT_LT(system.SystemServerJgrCount(), 3000u);
  // 379 daemons + system_server + bluetooth + pico = 382 (stock baseline).
  EXPECT_EQ(system.kernel().LiveProcessCount(), 382u);
}

TEST(AttackSmoke, ClipboardAttackSoftRebootsTheSystem) {
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("clipboard", "addPrimaryClipChangedListener");
  ASSERT_NE(vuln, nullptr);
  sim::DeviceSpec spec;
  spec.WithAttack(*vuln).WithMaxAttackerCalls(200'000);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();

  std::size_t peak_jgr = 0;
  const experiment::DriveResult result = experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      std::numeric_limits<TimeUs>::max(), [&](TimeUs) {
        peak_jgr = std::max(peak_jgr, system.SystemServerJgrCount());
      });
  const int calls = device->attacker()->stats().calls_issued;

  EXPECT_TRUE(result.soft_rebooted);
  EXPECT_EQ(system.soft_reboots(), 1);
  // ~2 JGRs per call from a ~1,200 baseline to the 51,200 cap.
  EXPECT_GT(calls, 20'000);
  EXPECT_LT(calls, 30'000);
  EXPECT_GE(peak_jgr, rt::kGlobalsMax - 2);
  // The system recovered: services are back and usable.
  EXPECT_TRUE(system.service_manager().HasService("clipboard"));
  EXPECT_LT(system.SystemServerJgrCount(), 3000u);
}

TEST(DefenseSmoke, DefenderKillsTheAttackerBeforeOverflow) {
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("audio", "startWatchingRoutes");
  ASSERT_NE(vuln, nullptr);
  sim::DeviceSpec spec;
  spec.WithAttack(*vuln).WithMaxAttackerCalls(200'000).WithDefense();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  const defense::JgreDefender& defender = *device->defender();
  services::AppProcess* evil = system.FindApp(spec.attack_package());

  const experiment::DefendedAttackResult result =
      experiment::Experiment(*device).RunDefendedAttack();

  // No overflow, no reboot: the defender killed the attacker first.
  EXPECT_FALSE(result.soft_rebooted);
  EXPECT_EQ(system.soft_reboots(), 0);
  ASSERT_EQ(defender.incidents().size(), 1u);
  const auto& incident = defender.incidents().front();
  EXPECT_TRUE(incident.recovered);
  ASSERT_FALSE(incident.ranking.empty());
  EXPECT_EQ(incident.ranking.front().package, "com.evil.app");
  ASSERT_EQ(incident.killed_packages.size(), 1u);
  EXPECT_EQ(incident.killed_packages.front(), "com.evil.app");
  EXPECT_FALSE(evil->alive());
  EXPECT_LE(system.SystemServerJgrCount(), 3500u);
}

}  // namespace
}  // namespace jgre
