// System-level property tests: random mixed workloads (benign churn, partial
// attacks, app kills, GC) must never violate the simulator's accounting
// invariants — JGR counts, fd counts, process/memory bookkeeping — and must
// stay deterministic per seed.
#include <gtest/gtest.h>

#include <memory>

#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "services/audio_service.h"
#include "services/ipc_client.h"
#include "services/safe_service.h"

namespace jgre {
namespace {

class SystemPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemPropertyTest, RandomWorkloadKeepsInvariants) {
  core::SystemConfig config;
  config.seed = GetParam();
  core::AndroidSystem system(config);
  system.Boot();
  Rng rng(GetParam() * 7919 + 1);

  // A pool of apps, some of which run partial attacks. The test relaunches
  // killed apps (a new AppProcess), so each app issues its own attack calls
  // over a client it re-resolves after a relaunch or DEAD_OBJECT.
  std::vector<services::AppProcess*> apps;
  std::vector<attack::VulnSpec> app_vulns;
  std::vector<services::IpcClient> clients;
  const auto vulns = attack::SystemServerVulnerabilities();
  for (int i = 0; i < 6; ++i) {
    const attack::VulnSpec& vuln = vulns[rng.UniformU64(vulns.size())];
    apps.push_back(attack::InstallAttackApp(
        &system, "com.fuzz.app" + std::to_string(i), vuln));
    app_vulns.push_back(vuln);
  }
  clients.resize(apps.size());
  const auto attack_step = [&](std::size_t i) {
    const attack::VulnSpec& vuln = app_vulns[i];
    if (!clients[i].valid()) {
      auto client = apps[i]->GetService(vuln.service, vuln.descriptor);
      if (!client.ok()) return;
      clients[i] = std::move(client).value();
    }
    const Status status = clients[i].Call(vuln.code, [&](binder::Parcel& p) {
      vuln.write_args(*apps[i], p);
    });
    if (status.code() == StatusCode::kUnavailable) {
      clients[i] = services::IpcClient();
    }
  };

  const std::int64_t mem_baseline = system.kernel().UsedMemoryKb();
  for (int step = 0; step < 3000; ++step) {
    const std::size_t i = rng.UniformU64(apps.size());
    const double roll = rng.UniformDouble();
    if (roll < 0.55) {
      if (apps[i]->alive()) attack_step(i);
    } else if (roll < 0.7) {
      // Benign query traffic.
      if (apps[i]->alive()) {
        auto audio = apps[i]->GetService(services::AudioService::kName,
                                         services::AudioService::kDescriptor);
        if (audio.ok()) {
          (void)audio.value().Call(
              services::AudioService::TRANSACTION_getStreamVolume,
              [](binder::Parcel& p) { p.WriteInt32(3); });
        }
      }
    } else if (roll < 0.78) {
      system.CollectAllGarbage();
    } else if (roll < 0.85) {
      if (apps[i]->alive() && rng.Chance(0.5)) {
        system.kernel().KillProcess(apps[i]->pid(), "fuzz kill");
      } else if (!apps[i]->alive()) {
        apps[i] = system.RelaunchApp(apps[i]->package());
        // The old client belongs to the dead process; resolve a new one.
        clients[i] = services::IpcClient();
      }
    } else {
      system.clock().AdvanceUs(rng.UniformU64(200'000));
    }

    // Invariants, every step:
    rt::Runtime* ss = system.system_runtime();
    ASSERT_NE(ss, nullptr);
    // 1. JGR count never exceeds the cap (overflow must abort instead).
    ASSERT_LE(ss->JgrCount(), rt::kGlobalsMax);
    // 2. Table bookkeeping is internally consistent.
    ASSERT_EQ(ss->vm().total_global_adds() - ss->vm().total_global_removes(),
              static_cast<std::int64_t>(ss->JgrCount()));
    // 3. No local references leak across transactions.
    ASSERT_EQ(ss->LocalRefCount(), 0u);
    // 4. Kernel memory accounting never goes negative and dead processes
    //    hold no memory.
    ASSERT_GE(system.kernel().FreeMemoryKb(), 0);
  }
  // After killing every fuzz app and GC, system_server returns to (near)
  // baseline: everything the apps pinned was reclaimable.
  for (auto* app : apps) {
    if (app != nullptr && app->alive()) {
      system.kernel().KillProcess(app->pid(), "teardown");
    }
  }
  system.CollectAllGarbage();
  EXPECT_LT(system.SystemServerJgrCount(), 1500u);
  EXPECT_GE(system.kernel().UsedMemoryKb(), 0);
  EXPECT_LE(system.kernel().UsedMemoryKb(), mem_baseline);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SystemPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalTrajectories) {
  auto run = [](std::uint64_t seed) {
    core::SystemConfig config;
    config.seed = seed;
    core::AndroidSystem system(config);
    system.Boot();
    const auto* vuln =
        attack::FindVulnerability("clipboard", "addPrimaryClipChangedListener");
    auto attacker =
        attack::MakeFlood(attack::AttackPlan{}, *vuln, "com.evil.app");
    EXPECT_TRUE(attacker->Setup(system).ok());
    for (int i = 0; i < 2000; ++i) (void)attacker->Step(system);
    return std::make_tuple(system.clock().NowUs(),
                           system.SystemServerJgrCount(),
                           system.driver().total_transactions());
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(std::get<0>(run(11)), std::get<0>(run(12)));
}

}  // namespace
}  // namespace jgre
