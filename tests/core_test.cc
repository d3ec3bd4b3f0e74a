// Core facade tests: boot census, app lifecycle, soft-reboot recovery,
// GC cadence, third-party app installation.
#include <gtest/gtest.h>

#include <limits>

#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "core/market_apps.h"
#include "experiment/experiment.h"
#include "services/audio_service.h"
#include "sim/device.h"

namespace jgre {
namespace {

TEST(CoreTest, BootIsDeterministicForTheSameSeed) {
  core::SystemConfig config;
  config.seed = 99;
  core::AndroidSystem a(config), b(config);
  a.Boot();
  b.Boot();
  EXPECT_EQ(a.SystemServerJgrCount(), b.SystemServerJgrCount());
  EXPECT_EQ(a.kernel().LiveProcessCount(), b.kernel().LiveProcessCount());
  EXPECT_EQ(a.service_manager().ListServices(),
            b.service_manager().ListServices());
}

TEST(CoreTest, InstallAppAssignsFreshUids) {
  core::AndroidSystem system;
  system.Boot();
  auto* a = system.InstallApp("com.a");
  auto* b = system.InstallApp("com.b");
  EXPECT_NE(a->uid(), b->uid());
  EXPECT_GE(a->uid().value(), kFirstAppUid.value());
  EXPECT_EQ(system.FindApp("com.a"), a);
  EXPECT_EQ(system.FindApp("com.missing"), nullptr);
}

TEST(CoreTest, RelaunchKeepsUidChangesPid) {
  core::AndroidSystem system;
  system.Boot();
  auto* app = system.InstallApp("com.a");
  const Uid uid = app->uid();
  const Pid old_pid = app->pid();
  system.StopApp("com.a");
  EXPECT_FALSE(system.kernel().IsAlive(old_pid));
  auto* relaunched = system.RelaunchApp("com.a");
  ASSERT_NE(relaunched, nullptr);
  EXPECT_EQ(relaunched->uid(), uid);
  EXPECT_NE(relaunched->pid(), old_pid);
  EXPECT_TRUE(relaunched->alive());
}

TEST(CoreTest, SoftRebootRestoresAllServicesWithFreshState) {
  const auto* vuln =
      attack::FindVulnerability("audio", "startWatchingRoutes");
  sim::DeviceSpec spec;
  spec.WithAttack(*vuln).WithMaxAttackerCalls(200'000);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  const std::size_t services_before =
      system.service_manager().ServiceCount();
  const experiment::DriveResult result = experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      std::numeric_limits<TimeUs>::max());
  ASSERT_TRUE(result.soft_rebooted);
  EXPECT_EQ(system.soft_reboots(), 1);
  // Same census, fresh JGR table, prebuilt apps relaunched.
  EXPECT_EQ(system.service_manager().ServiceCount(), services_before);
  EXPECT_LT(system.SystemServerJgrCount(), 3000u);
  EXPECT_TRUE(system.bluetooth_app() != nullptr &&
              system.bluetooth_app()->alive());
  EXPECT_TRUE(system.pico_tts_app() != nullptr &&
              system.pico_tts_app()->alive());
  // The new service incarnation is functional.
  auto* survivor = system.RelaunchApp("com.evil.app");
  auto audio = survivor->GetService(services::AudioService::kName,
                                    services::AudioService::kDescriptor);
  ASSERT_TRUE(audio.ok());
  binder::Parcel reply;
  EXPECT_TRUE(audio.value()
                  .Call(services::AudioService::TRANSACTION_getStreamVolume,
                        [](binder::Parcel& p) { p.WriteInt32(3); },
                        &reply)
                  .ok());
}

TEST(CoreTest, PumpRunsPeriodicGcAcrossTransactions) {
  core::SystemConfig config;
  config.gc_period_us = 1'000'000;
  core::AndroidSystem system(config);
  system.Boot();
  auto* app = system.InstallApp("com.a");
  rt::Runtime* runtime = system.system_runtime();
  const std::int64_t gc_before = runtime->gc_runs();
  auto audio = app->GetService(services::AudioService::kName,
                               services::AudioService::kDescriptor);
  ASSERT_TRUE(audio.ok());
  // Enough transactions to span several GC periods of virtual time.
  for (int i = 0; i < 100; ++i) {
    system.clock().AdvanceUs(100'000);
    binder::Parcel reply;
    (void)audio.value().Call(
        services::AudioService::TRANSACTION_getStreamVolume,
        [](binder::Parcel& p) { p.WriteInt32(3); }, &reply);
  }
  EXPECT_GT(runtime->gc_runs(), gc_before + 5);
}

TEST(CoreTest, ThirdPartyVulnerableAppsInstallAndServe) {
  const auto& vulns = attack::ThirdPartyVulnerabilities();
  // The Google TTS attack aborts com.google.android.tts, not the system.
  sim::DeviceSpec spec;
  spec.WithAttack(vulns[0]).WithMaxAttackerCalls(200'000);
  const sim::DeviceFactory factory(spec);
  std::unique_ptr<core::AndroidSystem> booted = factory.BootPrefix();
  core::InstallThirdPartyVulnerableApps(*booted);
  auto device = factory.CreateDeviceOn(std::move(booted));
  core::AndroidSystem& system = device->system();
  for (const char* name : {"googletts", "supernetvpn", "snapmovie"}) {
    EXPECT_TRUE(system.service_manager().HasService(name)) << name;
  }
  (void)experiment::Drive(*device, device->attacker(),
                          experiment::StopRule::kFirstIncident,
                          std::numeric_limits<TimeUs>::max());
  EXPECT_TRUE(system.VictimDown(vulns[0].victim_package));
  EXPECT_EQ(system.soft_reboots(), 0);
  EXPECT_FALSE(system.FindApp("com.google.android.tts")->alive());
}

TEST(CoreTest, ServiceTemplateLookupFindsTypedServices) {
  core::AndroidSystem system;
  system.Boot();
  EXPECT_NE(system.Service<services::AudioService>(), nullptr);
  EXPECT_NE(system.FindServiceObject("clipboard"), nullptr);
  EXPECT_EQ(system.FindServiceObject("not-a-service"), nullptr);
}

}  // namespace
}  // namespace jgre
