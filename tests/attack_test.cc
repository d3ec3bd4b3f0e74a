// Attack framework tests: registry integrity, per-vulnerability
// exploitability (parameterized over all 57), permission gating, and the
// benign workload's bounded footprint.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "common/stats.h"
#include "core/android_system.h"
#include "experiment/experiment.h"
#include "obs/event.h"
#include "services/ipc_client.h"
#include "sim/device.h"

namespace jgre {
namespace {

TEST(VulnRegistryTest, CensusCountsMatchThePaper) {
  const auto& all = attack::AllVulnerabilities();
  EXPECT_EQ(all.size(), 57u);
  int system_side = 0, prebuilt = 0;
  std::set<std::string> services, prebuilt_packages;
  std::set<int> ids;
  int helper = 0, flawed = 0, unprotected = 0;
  for (const auto& vuln : all) {
    EXPECT_TRUE(ids.insert(vuln.id).second) << "duplicate id " << vuln.id;
    ASSERT_TRUE(static_cast<bool>(vuln.write_args)) << vuln.interface;
    if (vuln.victim == attack::VictimKind::kSystemServer) {
      ++system_side;
      services.insert(vuln.service);
    } else {
      ++prebuilt;
      prebuilt_packages.insert(vuln.victim_package);
    }
    switch (vuln.protection) {
      case attack::Protection::kNone:
        ++unprotected;
        break;
      case attack::Protection::kHelperClass:
        ++helper;
        break;
      case attack::Protection::kPerProcessFlawed:
        ++flawed;
        break;
    }
  }
  EXPECT_EQ(system_side, 54);
  EXPECT_EQ(prebuilt, 3);
  EXPECT_EQ(services.size(), 32u);
  EXPECT_EQ(prebuilt_packages.size(), 2u);
  EXPECT_EQ(helper, 9);
  EXPECT_EQ(flawed, 1);
  EXPECT_EQ(unprotected, 47);  // 44 system + 3 prebuilt
}

TEST(VulnRegistryTest, LookupByServiceAndInterface) {
  const auto* vuln = attack::FindVulnerability("wifi", "acquireWifiLock");
  ASSERT_NE(vuln, nullptr);
  EXPECT_EQ(vuln->protection, attack::Protection::kHelperClass);
  EXPECT_EQ(attack::FindVulnerability("wifi", "nope"), nullptr);
  EXPECT_EQ(attack::ThirdPartyVulnerabilities().size(), 3u);
}

TEST(AttackerTest, PermissionGatedAttackFailsWithoutGrant) {
  core::AndroidSystem system;
  system.Boot();
  const auto* vuln =
      attack::FindVulnerability("location", "addGpsStatusListener");
  ASSERT_NE(vuln, nullptr);
  // Deliberately install WITHOUT the dangerous permission.
  services::AppProcess* evil = system.InstallApp("com.evil.noperm");
  auto client = evil->GetService(vuln->service, vuln->descriptor);
  ASSERT_TRUE(client.ok());
  system.CollectAllGarbage();
  const std::size_t before = system.SystemServerJgrCount();
  for (int i = 0; i < 100; ++i) {
    const Status status = client.value().Call(
        vuln->code, [&](binder::Parcel& p) { vuln->write_args(*evil, p); });
    ASSERT_EQ(status.code(), StatusCode::kPermissionDenied) << i;
  }
  system.CollectAllGarbage();
  EXPECT_LE(system.SystemServerJgrCount(), before);
  EXPECT_FALSE(system.VictimDown(""));
  EXPECT_EQ(system.soft_reboots(), 0);
}

// Parameterized sweep: every registered vulnerability must leak its declared
// JGRs per call into the declared victim, surviving GC.
class ExploitabilityTest : public ::testing::TestWithParam<int> {};

TEST_P(ExploitabilityTest, LeaksDeclaredJgrsPerCall) {
  const attack::VulnSpec& vuln =
      attack::AllVulnerabilities()[static_cast<std::size_t>(GetParam())];
  core::AndroidSystem system;
  system.Boot();
  auto attacker = attack::MakeFlood(attack::AttackPlan{}, vuln, "com.evil.app");
  ASSERT_TRUE(attacker->Setup(system).ok());
  system.CollectAllGarbage();
  // victim_package is "" (system_server) for system-service vulnerabilities.
  const std::size_t before = system.JgrCountOf(vuln.victim_package);
  constexpr int kCalls = 200;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(attacker->Step(system));
    ASSERT_EQ(attacker->stats().calls_ok, i + 1)
        << vuln.service << "." << vuln.interface;
  }
  system.CollectAllGarbage();
  const double growth_per_call =
      (static_cast<double>(system.JgrCountOf(vuln.victim_package)) -
       static_cast<double>(before)) /
      kCalls;
  EXPECT_NEAR(growth_per_call, vuln.jgrs_per_call, 0.35)
      << vuln.service << "." << vuln.interface;
}

INSTANTIATE_TEST_SUITE_P(
    AllVulnerabilities, ExploitabilityTest,
    ::testing::Range(0, static_cast<int>(attack::AllVulnerabilities().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      const attack::VulnSpec& vuln =
          attack::AllVulnerabilities()[static_cast<std::size_t>(info.param)];
      std::string name = vuln.service + "_" + vuln.interface;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(BenignWorkloadTest, KeepsSystemServerInTheBenignBand) {
  core::AndroidSystem system;
  system.Boot();
  attack::BenignWorkload::Options options;
  options.app_count = 30;
  options.per_app_foreground_us = 3'000'000;
  attack::BenignWorkload workload(&system, options);
  workload.InstallAll();
  EXPECT_EQ(workload.packages().size(), 30u);
  workload.RunMonkeySession();
  // Observation 1: benign JGR footprint is stable and far below the cap.
  EXPECT_LT(system.SystemServerJgrCount(), 3000u);
  EXPECT_GT(system.SystemServerJgrCount(), 1000u);
  EXPECT_EQ(system.soft_reboots(), 0);
}

// Records the calling (pid, uid) of every kIpc event.
class IpcCallerSink : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    callers.emplace_back(event.pid, event.uid);
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> callers;
};

TEST(BenignWorkloadTest, InteractionAfterAStopCallsFromTheRelaunchedProcess) {
  core::AndroidSystem system;
  system.Boot();
  attack::BenignWorkload::Options options;
  options.app_count = 6;
  attack::BenignWorkload workload(&system, options);
  workload.InstallAll();
  IpcCallerSink sink;
  system.kernel().bus().Subscribe(&sink, obs::MaskOf(obs::Category::kIpc));
  // Pids the app's own calls came from during InteractOnce(index).
  const auto app_callers = [&](std::size_t index, Uid uid) {
    sink.callers.clear();
    workload.InteractOnce(index);
    std::set<std::int32_t> pids;
    for (const auto& [pid, caller_uid] : sink.callers) {
      if (caller_uid == uid.value()) pids.insert(pid);
    }
    return pids;
  };
  int apps_that_called = 0;
  for (std::size_t i = 0; i < workload.packages().size(); ++i) {
    const std::string& package = workload.packages()[i];
    workload.InteractOnce(i);
    const Pid stopped = system.FindApp(package)->pid();
    system.StopApp(package);

    const std::set<std::int32_t> first =
        app_callers(i, system.FindApp(package)->uid());
    const Pid relaunched = system.FindApp(package)->pid();
    EXPECT_NE(relaunched, stopped) << package;
    // The next interaction reuses that process instead of relaunching again.
    const std::set<std::int32_t> second =
        app_callers(i, system.FindApp(package)->uid());
    EXPECT_EQ(system.FindApp(package)->pid(), relaunched) << package;
    for (const std::set<std::int32_t>& pids : {first, second}) {
      for (const std::int32_t pid : pids) {
        EXPECT_EQ(pid, relaunched.value()) << package;
      }
    }
    if (!first.empty()) ++apps_that_called;
  }
  EXPECT_GT(apps_that_called, 0);
  system.kernel().bus().Unsubscribe(&sink);
}

TEST(BenignWorkloadTest, ChattyLoopCreatesNoRetainedJgrs) {
  core::AndroidSystem system;
  system.Boot();
  attack::BenignWorkload::Options options;
  options.app_count = 1;
  attack::BenignWorkload workload(&system, options);
  workload.InstallAll();
  services::AppProcess* app = system.FindApp(workload.packages().front());
  system.CollectAllGarbage();
  const std::size_t before = system.SystemServerJgrCount();
  workload.ChattyQueryLoop(app, 500, 100);
  system.CollectAllGarbage();
  EXPECT_LE(system.SystemServerJgrCount(), before + 2);
}

TEST(AttackerTest, AttackCurveIsMonotonicallyIncreasing) {
  const auto* vuln = attack::FindVulnerability("mount", "registerListener");
  ASSERT_NE(vuln, nullptr);
  sim::DeviceSpec spec;
  spec.WithAttack(*vuln).WithMaxAttackerCalls(3000);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  const attack::AttackStrategy& attacker = *device->attacker();
  TimeSeries curve("victim_jgr");
  curve.Add(system.clock().NowUs(),
            static_cast<double>(system.SystemServerJgrCount()));
  (void)experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      system.clock().NowUs() + 4'000'000'000ULL, [&](TimeUs) {
        if (attacker.stats().calls_issued % 100 == 0) {
          curve.Add(system.clock().NowUs(),
                    static_cast<double>(system.SystemServerJgrCount()));
        }
      });
  EXPECT_EQ(attacker.stats().calls_issued, 3000);
  const auto& points = curve.points();
  ASSERT_GT(points.size(), 10u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].second + 1, points[i - 1].second);
    EXPECT_GE(points[i].first, points[i - 1].first);
  }
}

TEST(AttackerTest, FloodStopsWhenItsAppVictimDies) {
  // Table IV's PicoTts row: the app's own table overflows, the app aborts,
  // and the flood stops there instead of spending the rest of its budget.
  const auto* vuln = attack::FindVulnerability("picotts", "setCallback");
  ASSERT_NE(vuln, nullptr);
  sim::DeviceSpec spec;
  spec.WithSeed(42).WithAttack(*vuln).WithMaxAttackerCalls(200'000);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  const experiment::DriveResult result = experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      system.clock().NowUs() + 4'000'000'000ULL);
  EXPECT_TRUE(system.VictimDown("com.svox.pico"));
  EXPECT_FALSE(result.soft_rebooted);
  EXPECT_EQ(system.soft_reboots(), 0);
  EXPECT_FALSE(result.attacker_killed);
  EXPECT_EQ(device->attacker()->stats().calls_issued, 12'755);
}

}  // namespace
}  // namespace jgre
