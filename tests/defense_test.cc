// Defense tests: monitor thresholds, Algorithm 1 scoring, the defender's
// end-to-end incident handling for every vulnerability, collusion, and the
// trust boundary of the IPC log.
#include <gtest/gtest.h>

#include <limits>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "common/clock.h"
#include "defense/jgr_monitor.h"
#include "defense/jgre_defender.h"
#include "defense/monitor_hub.h"
#include "defense/scoring.h"
#include "experiment/experiment.h"
#include "obs/event.h"
#include "obs/event_bus.h"
#include "sim/device.h"

namespace jgre {
namespace {

// --- JgrMonitor ----------------------------------------------------------------

TEST(JgrMonitorTest, PassiveBelowAlarmThreshold) {
  SimClock clock;
  defense::JgrMonitor::Config config;
  config.alarm_threshold = 100;
  config.report_threshold = 50;
  defense::JgrMonitor monitor(&clock, "victim", config);
  for (std::size_t count = 1; count <= 100; ++count) {
    monitor.OnJgrAdd(clock.NowUs(), count, ObjectId{1});
  }
  EXPECT_FALSE(monitor.recording());
  EXPECT_TRUE(monitor.events().empty());
  EXPECT_EQ(clock.NowUs(), 0u);  // zero recording cost while passive
}

TEST(JgrMonitorTest, RecordsAndReportsPastThresholds) {
  SimClock clock;
  defense::JgrMonitor::Config config;
  config.alarm_threshold = 10;
  config.report_threshold = 5;
  config.record_cost_us = 1;
  defense::JgrMonitor monitor(&clock, "victim", config);
  for (std::size_t count = 1; count <= 16; ++count) {
    monitor.OnJgrAdd(clock.NowUs(), count, ObjectId{1});
  }
  EXPECT_TRUE(monitor.recording());
  EXPECT_TRUE(monitor.reported());
  EXPECT_EQ(monitor.events().size(), 6u);  // counts 11..16
  EXPECT_EQ(monitor.AddTimes().size(), 6u);
  EXPECT_EQ(clock.NowUs(), 6u);  // 1 us per recorded op
  monitor.OnJgrRemove(clock.NowUs(), 15, ObjectId{1});
  EXPECT_EQ(monitor.events().size(), 7u);
  EXPECT_EQ(monitor.AddTimes().size(), 6u);  // removes excluded
  monitor.Reset();
  EXPECT_FALSE(monitor.recording());
  EXPECT_TRUE(monitor.events().empty());
}

// --- JgrMonitorHub ----------------------------------------------------------------

// A hub-routed monitor with alarm_threshold 0 records from the first add, so
// one event per emission makes routing visible in event_count().
defense::JgrMonitor::Config AlwaysRecording() {
  defense::JgrMonitor::Config config;
  config.alarm_threshold = 0;
  config.report_threshold = 1'000'000;
  config.record_cost_us = 0;
  return config;
}

obs::TraceEvent JgrAddFor(std::int32_t pid, TimeUs t) {
  return obs::MakeEvent(obs::Category::kJgr, obs::Label::kJgrAdd, t, pid,
                        1000, /*count_after=*/1, /*obj=*/1);
}

TEST(JgrMonitorHubTest, RoutesEventsByPid) {
  obs::EventBus bus;
  SimClock clock;
  defense::JgrMonitor a(&clock, "victim_a", AlwaysRecording());
  defense::JgrMonitor b(&clock, "victim_b", AlwaysRecording());
  defense::JgrMonitorHub hub(&bus);
  hub.Attach(Pid{2}, &a);
  hub.Attach(Pid{5}, &b);
  EXPECT_EQ(hub.MonitorForPid(Pid{2}), &a);
  EXPECT_EQ(hub.MonitorForPid(Pid{5}), &b);
  EXPECT_EQ(hub.MonitorForPid(Pid{3}), nullptr);
  EXPECT_EQ(hub.MonitorForPid(Pid{999}), nullptr);  // beyond the route table

  bus.Emit(JgrAddFor(2, 10));
  bus.Emit(JgrAddFor(5, 11));
  bus.Emit(JgrAddFor(9, 12));  // unrouted pid: dropped at the hub
  EXPECT_EQ(a.event_count(), 1u);
  EXPECT_EQ(b.event_count(), 1u);
}

TEST(JgrMonitorHubTest, AttachReplacesAndNullClearsARoute) {
  obs::EventBus bus;
  SimClock clock;
  defense::JgrMonitor first(&clock, "first", AlwaysRecording());
  defense::JgrMonitor second(&clock, "second", AlwaysRecording());
  defense::JgrMonitorHub hub(&bus);
  hub.Attach(Pid{3}, &first);
  hub.Attach(Pid{3}, &second);  // replaces, not adds
  bus.Emit(JgrAddFor(3, 1));
  EXPECT_EQ(first.event_count(), 0u);
  EXPECT_EQ(second.event_count(), 1u);

  hub.Attach(Pid{3}, nullptr);  // clears
  bus.Emit(JgrAddFor(3, 2));
  EXPECT_EQ(second.event_count(), 1u);
  EXPECT_EQ(hub.MonitorForPid(Pid{3}), nullptr);
}

TEST(JgrMonitorHubTest, DetachByIdentityClearsEveryRoute) {
  // A victim's pid changes across a soft reboot, so the defender detaches by
  // monitor identity (which may be routed at a stale pid and a fresh one).
  obs::EventBus bus;
  SimClock clock;
  defense::JgrMonitor monitor(&clock, "victim", AlwaysRecording());
  defense::JgrMonitorHub hub(&bus);
  hub.Attach(Pid{2}, &monitor);
  hub.Attach(Pid{7}, &monitor);
  hub.Detach(&monitor);
  EXPECT_EQ(hub.MonitorForPid(Pid{2}), nullptr);
  EXPECT_EQ(hub.MonitorForPid(Pid{7}), nullptr);
  bus.Emit(JgrAddFor(2, 1));
  bus.Emit(JgrAddFor(7, 2));
  EXPECT_EQ(monitor.event_count(), 0u);
  // Re-attach at the post-reboot pid restores delivery.
  hub.Attach(Pid{4}, &monitor);
  bus.Emit(JgrAddFor(4, 3));
  EXPECT_EQ(monitor.event_count(), 1u);
}

// --- Algorithm 1 ------------------------------------------------------------------

// Interned (descriptor, code) type keys for synthetic scoring workloads.
constexpr defense::IpcTypeKey kEvil1 = defense::MakeIpcTypeKey(1, 1);
constexpr defense::IpcTypeKey kEvil2 = defense::MakeIpcTypeKey(1, 2);
constexpr defense::IpcTypeKey kBenign1 = defense::MakeIpcTypeKey(2, 1);
constexpr defense::IpcTypeKey kTypeA = defense::MakeIpcTypeKey(3, 1);
constexpr defense::IpcTypeKey kTypeB = defense::MakeIpcTypeKey(4, 2);

defense::ScoringParams TestParams() {
  defense::ScoringParams params;
  params.delta_us = 500;
  params.bucket_us = 50;
  params.max_delay_us = 20'000;
  params.analysis_window_us = 0;
  return params;
}

TEST(ScoringTest, PerfectCorrelationScoresEveryCall) {
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  for (int i = 0; i < 100; ++i) {
    const TimeUs t = 1000 + static_cast<TimeUs>(i) * 10'000;
    calls.push_back({t, kEvil1});
    adds.push_back(t + 700);  // constant Delay, zero jitter
  }
  EXPECT_EQ(defense::JgreScoreForApp(calls, adds, TestParams()), 100);
}

TEST(ScoringTest, UncorrelatedCallsScoreLow) {
  Rng rng(5);
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  TimeUs t = 1000;
  for (int i = 0; i < 200; ++i) {
    t += 1000 + rng.UniformU64(9000);
    calls.push_back({t, kBenign1});
  }
  TimeUs a = 1500;
  for (int i = 0; i < 200; ++i) {
    a += 1000 + rng.UniformU64(9000);
    adds.push_back(a);
  }
  std::sort(adds.begin(), adds.end());
  const auto score = defense::JgreScoreForApp(calls, adds, TestParams());
  EXPECT_LT(score, 40);  // no consistent delay hypothesis
}

TEST(ScoringTest, JitterWithinDeltaStillScoresHigh) {
  Rng rng(9);
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  for (int i = 0; i < 100; ++i) {
    const TimeUs t = 1000 + static_cast<TimeUs>(i) * 10'000;
    calls.push_back({t, kEvil1});
    adds.push_back(t + 700 + rng.UniformU64(400));  // jitter < delta=500
  }
  std::sort(adds.begin(), adds.end());
  EXPECT_GE(defense::JgreScoreForApp(calls, adds, TestParams()), 90);
}

TEST(ScoringTest, ScoreSumsAcrossIpcTypes) {
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  for (int i = 0; i < 50; ++i) {
    const TimeUs t = 1000 + static_cast<TimeUs>(i) * 10'000;
    calls.push_back({t, kEvil1});
    adds.push_back(t + 500);
    calls.push_back({t + 2'000, kEvil2});
    adds.push_back(t + 2'900);
  }
  std::sort(adds.begin(), adds.end());
  EXPECT_EQ(defense::JgreScoreForApp(calls, adds, TestParams()), 100);
}

TEST(ScoringTest, PairsOutsideMaxDelayIgnored) {
  std::vector<defense::IpcEvent> calls{{1000, kEvil1}};
  std::vector<TimeUs> adds{1000 + 25'000};  // beyond max_delay = 20ms
  defense::ScoringCost cost;
  EXPECT_EQ(defense::JgreScoreForApp(calls, adds, TestParams(), &cost), 0);
  EXPECT_EQ(cost.pairs, 0);
}

// Property: the scorer and its naive reference agree on random workloads,
// score for score and counter for counter.
class ScoringEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ScoringEquivalenceTest, EnginesAgree) {
  Rng rng(GetParam());
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  TimeUs t = 1000;
  const int n = 50 + static_cast<int>(rng.UniformU64(300));
  for (int i = 0; i < n; ++i) {
    t += 200 + rng.UniformU64(3000);
    calls.push_back(
        {t, rng.Chance(0.5) ? kTypeA : kTypeB});
    if (rng.Chance(0.8)) adds.push_back(t + 100 + rng.UniformU64(5000));
    if (rng.Chance(0.2)) adds.push_back(t + rng.UniformU64(30'000));
  }
  std::sort(adds.begin(), adds.end());
  defense::ScoringCost batched_cost;
  defense::ScoringCost naive_cost;
  const auto batched =
      defense::JgreScoreForApp(calls, adds, TestParams(), &batched_cost);
  const auto naive =
      defense::NaiveJgreScoreForApp(calls, adds, TestParams(), &naive_cost);
  EXPECT_EQ(batched, naive);
  EXPECT_EQ(batched_cost.ipc_events, naive_cost.ipc_events);
  EXPECT_EQ(batched_cost.jgr_events, naive_cost.jgr_events);
  EXPECT_EQ(batched_cost.pairs, naive_cost.pairs);
  EXPECT_EQ(batched_cost.range_ops, naive_cost.range_ops);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ScoringEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- End-to-end defense, parameterized over every vulnerability -------------------

class DefensePerVulnTest : public ::testing::TestWithParam<int> {};

TEST_P(DefensePerVulnTest, DefenderStopsTheAttackBeforeOverflow) {
  const attack::VulnSpec& vuln =
      attack::AllVulnerabilities()[static_cast<std::size_t>(GetParam())];
  sim::DeviceSpec spec;
  spec.WithAttack(vuln).WithMaxAttackerCalls(200'000).WithDefense();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  const defense::JgreDefender& defender = *device->defender();
  services::AppProcess* evil = system.FindApp(spec.attack_package());
  const experiment::DefendedAttackResult result =
      experiment::Experiment(*device).RunDefendedAttack();

  EXPECT_FALSE(result.soft_rebooted) << vuln.service << "." << vuln.interface;
  EXPECT_FALSE(system.VictimDown(vuln.victim_package))
      << vuln.service << "." << vuln.interface;
  EXPECT_EQ(system.soft_reboots(), 0);
  ASSERT_EQ(defender.incidents().size(), 1u);
  const auto& incident = defender.incidents().front();
  EXPECT_TRUE(incident.recovered);
  ASSERT_FALSE(incident.ranking.empty());
  EXPECT_EQ(incident.ranking.front().package, "com.evil.app");
  EXPECT_FALSE(evil->alive());
  // Identification is far faster than the fastest overflow (~100 s).
  EXPECT_LT(incident.response_delay_us(), 10'000'000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVulnerabilities, DefensePerVulnTest,
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

// --- Collusion + trust boundary -----------------------------------------------------

TEST(DefenseTest, CollusionIsFullyIdentified) {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();
  std::vector<std::unique_ptr<attack::AttackStrategy>> attackers;
  for (int i = 0; i < 3; ++i) {
    const char* targets[][2] = {{"clipboard", "addPrimaryClipChangedListener"},
                                {"audio", "startWatchingRoutes"},
                                {"window", "watchRotation"}};
    const auto* vuln =
        attack::FindVulnerability(targets[i][0], targets[i][1]);
    attackers.push_back(attack::MakeFlood(attack::AttackPlan{}, *vuln,
                                          "com.colluder" + std::to_string(i)));
    ASSERT_TRUE(attackers.back()->Setup(system).ok());
  }
  Rng rng(3);
  int rounds = 0;
  while (defender.incidents().empty() && rounds++ < 20'000) {
    for (auto& attacker : attackers) {
      (void)attacker->Step(system);  // a killed colluder issues nothing
      system.clock().AdvanceUs(rng.UniformU64(1200));
    }
  }
  ASSERT_EQ(defender.incidents().size(), 1u);
  const auto& incident = defender.incidents().front();
  EXPECT_TRUE(incident.recovered);
  EXPECT_EQ(incident.killed_packages.size(), 3u);
  for (auto& attacker : attackers) {
    const std::string package = attacker->attacker_packages().front();
    EXPECT_FALSE(system.FindApp(package)->alive()) << package;
  }
  EXPECT_LE(system.SystemServerJgrCount(), defender.config().recovery_target);
}

TEST(DefenseTest, ProcfsLogIsSystemOnly) {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();
  EXPECT_TRUE(system.kernel().procfs().Exists("/proc/jgre_ipc_log"));
  EXPECT_TRUE(
      system.kernel().procfs().Read("/proc/jgre_ipc_log", kSystemUid).ok());
  auto denied = system.kernel().procfs().Read("/proc/jgre_ipc_log", Uid{10050});
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

// The log's provider reads through the defender, and the system (restored
// in place for the next device) outlives it: the file must go with it.
TEST(DefenseTest, DestroyedDefenderTakesItsProcfsLogWithIt) {
  core::AndroidSystem system;
  system.Boot();
  {
    defense::JgreDefender defender(&system);
    defender.Install();
  }
  EXPECT_FALSE(system.kernel().procfs().Exists("/proc/jgre_ipc_log"));
  EXPECT_EQ(
      system.kernel().procfs().Read("/proc/jgre_ipc_log", kSystemUid)
          .status()
          .code(),
      StatusCode::kNotFound);
}

TEST(DefenseTest, DefenderReattachesAfterSoftReboot) {
  // Report threshold too high to stop the first attack: the system reboots,
  // and the defender must protect the NEW system_server incarnation.
  defense::JgreDefender::Config config;
  config.monitor.report_threshold = 100'000;
  const auto* vuln =
      attack::FindVulnerability("clipboard", "addPrimaryClipChangedListener");
  sim::DeviceSpec spec;
  spec.WithAttack(*vuln).WithMaxAttackerCalls(200'000).WithDefenderConfig(
      config);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  defense::JgreDefender& weak_defender = *device->defender();
  const experiment::DriveResult result = experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      std::numeric_limits<TimeUs>::max());
  EXPECT_TRUE(result.soft_rebooted);
  EXPECT_EQ(system.soft_reboots(), 1);
  // After the reboot the monitor must be live on the new runtime: drive the
  // new system_server past the alarm threshold and verify recording starts.
  defense::JgrMonitor* monitor = weak_defender.MonitorFor("system_server");
  ASSERT_NE(monitor, nullptr);
  EXPECT_FALSE(monitor->recording());
  auto attacker2 =
      attack::MakeFlood(attack::AttackPlan{}, *vuln, "com.evil.two");
  ASSERT_TRUE(attacker2->Setup(system).ok());
  for (int i = 0; i < 2000; ++i) (void)attacker2->Step(system);
  EXPECT_TRUE(monitor->recording());
}

TEST(DefenseTest, BenignWorkloadRaisesNoIncidents) {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();
  attack::BenignWorkload::Options options;
  options.app_count = 25;
  options.per_app_foreground_us = 4'000'000;
  attack::BenignWorkload workload(&system, options);
  workload.InstallAll();
  workload.RunMonkeySession();
  EXPECT_TRUE(defender.incidents().empty());
}

}  // namespace
}  // namespace jgre
