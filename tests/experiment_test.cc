// Experiment-builder and EventSink tests.
//
// The monitor observes through the unified EventBus (routed by a
// JgrMonitorHub's kJgr subscription), the defender ranks from the kernel's
// IPC log, and the benches build scenarios through the sim::DeviceFactory
// builder. These tests pin the behavior of those paths: monitors record
// through the bus, the log feeds the ranking, identical configurations
// yield identical simulation results and byte-identical traces.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "binder/ipc_log.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "defense/jgr_monitor.h"
#include "defense/jgre_defender.h"
#include "defense/monitor_hub.h"
#include "experiment/experiment.h"
#include "obs/chrome_trace.h"
#include "obs/event_bus.h"
#include "obs/trace.h"
#include "services/ipc_client.h"
#include "sim/device.h"

namespace jgre {
namespace {

const attack::VulnSpec& Toast() {
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("notification", "enqueueToast");
  EXPECT_NE(vuln, nullptr);
  return *vuln;
}

// Runs a short attack against a monitored system_server with the monitor
// routed from the EventBus by a JgrMonitorHub.
struct MonitoredRun {
  std::vector<defense::JgrMonitor::JgrEvent> events;
  TimeUs alarm_at = 0;
  TimeUs reported_at = 0;
  bool reported = false;
  TimeUs end_us = 0;
};

MonitoredRun RunMonitored() {
  core::SystemConfig config;
  config.seed = 11;
  core::AndroidSystem system(config);
  system.Boot();
  defense::JgrMonitor::Config monitor_config;
  monitor_config.alarm_threshold = 1500;
  monitor_config.report_threshold = 500;
  defense::JgrMonitor monitor(&system.clock(), "system_server",
                              monitor_config);
  defense::JgrMonitorHub hub(&system.kernel().bus());
  hub.Attach(system.system_server_pid(), &monitor);
  attack::AttackPlan plan;
  plan.max_calls = 800;
  auto attacker = attack::MakeFlood(plan, Toast(), "com.evil.app");
  EXPECT_TRUE(attacker->Setup(system).ok());
  while (attacker->Step(system)) {
  }
  MonitoredRun out;
  out.events = monitor.events();
  out.alarm_at = monitor.alarm_at();
  out.reported_at = monitor.reported_at();
  out.reported = monitor.reported();
  out.end_us = system.clock().NowUs();
  return out;
}

TEST(BusMonitorTest, RecordsAndReportsDeterministically) {
  const MonitoredRun first = RunMonitored();
  const MonitoredRun second = RunMonitored();
  EXPECT_TRUE(first.reported);
  EXPECT_GT(first.reported_at, first.alarm_at);
  EXPECT_EQ(first.reported, second.reported);
  EXPECT_EQ(first.alarm_at, second.alarm_at);
  EXPECT_EQ(first.reported_at, second.reported_at);
  EXPECT_EQ(first.end_us, second.end_us);  // identical recording costs
  ASSERT_EQ(first.events.size(), second.events.size());
  ASSERT_GT(first.events.size(), 0u);
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(first.events[i].t, second.events[i].t);
    EXPECT_EQ(first.events[i].is_add, second.events[i].is_add);
    EXPECT_EQ(first.events[i].count_after, second.events[i].count_after);
  }
}

TEST(IpcLogTest, RankingReadsTheKernelLogAndRequiresInstall) {
  sim::DeviceSpec spec;
  spec.WithSeed(21).WithBenignApps(3).WithAttack(Toast()).WithDefense();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  defense::JgreDefender& installed = *device->defender();
  // Drive the monitor past its alarm but not its report threshold: no
  // incident moves the defender past the recorded window.
  for (int call = 0; call < 4000; ++call) {
    ASSERT_TRUE(device->attacker()->Step(system));
  }
  ASSERT_TRUE(installed.incidents().empty());
  defense::JgrMonitor* monitor = installed.MonitorFor("system_server");
  ASSERT_NE(monitor, nullptr);
  ASSERT_TRUE(monitor->recording());
  ASSERT_TRUE(system.driver().defense_logging());

  defense::ScoringParams params;
  params.delta_us = 1800;
  params.analysis_window_us = 0;  // window = alarm..now
  const auto via_log =
      installed.RankApps(*monitor, system.system_server_pid(), params);
  ASSERT_FALSE(via_log.empty());
  EXPECT_EQ(via_log.front().package, "com.evil.app");
  // The attacker's call count is its share of the kernel log: records from
  // its uid to system_server, stamped at or after the alarm.
  std::int64_t logged = 0;
  auto visited = system.driver().VisitIpcLogSince(
      kSystemUid, 0, [&](const binder::IpcRecord& record) {
        if (record.from_uid == via_log.front().uid &&
            record.to_pid == system.system_server_pid() &&
            record.timestamp_us >= monitor->alarm_at()) {
          ++logged;
        }
      });
  ASSERT_TRUE(visited.ok()) << visited.status().ToString();
  EXPECT_GT(logged, 0);
  EXPECT_EQ(via_log.front().ipc_calls, logged);
  // Ranking is a pure function of the log + monitor: re-ranking the same
  // recording yields the same scores.
  const auto again =
      installed.RankApps(*monitor, system.system_server_pid(), params);
  ASSERT_EQ(via_log.size(), again.size());
  for (std::size_t i = 0; i < via_log.size(); ++i) {
    EXPECT_EQ(via_log[i].uid.value(), again[i].uid.value());
    EXPECT_EQ(via_log[i].score, again[i].score);
  }
  // An uninstalled defender reads no log and therefore ranks nothing.
  defense::JgreDefender uninstalled(&system);
  EXPECT_TRUE(
      uninstalled.RankApps(*monitor, system.system_server_pid(), params)
          .empty());
}

// The defense subscribes to no IPC events: on a defended device that nobody
// traces, meters or probes, the driver emits no kIpc event at all, and the
// defender still catches the flood from the kernel log.
TEST(IpcLogTest, UntracedDefendedDeviceWantsNoIpcEventsAndStillRanksTheFlood) {
  sim::DeviceSpec spec;
  spec.WithSeed(21).WithBenignApps(3).WithAttack(Toast()).WithDefense();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  EXPECT_FALSE(device->bus().Wants(obs::Category::kIpc));
  const experiment::DefendedAttackResult result =
      experiment::Experiment(*device).RunDefendedAttack();
  ASSERT_TRUE(result.incident);
  ASSERT_FALSE(result.report.ranking.empty());
  EXPECT_EQ(result.report.ranking.front().package, "com.evil.app");
}

TEST(DeviceFactoryTest, MatchesHandRolledSetupByteForByte) {
  // The pre-factory bench_util sequence, inlined: the factory must replicate
  // its construction order and RNG draws exactly.
  const attack::VulnSpec& vuln = Toast();
  const std::uint64_t seed = 42;
  const int benign_apps = 5;

  experiment::DefendedAttackResult legacy;
  {
    core::SystemConfig config;
    config.seed = seed;
    core::AndroidSystem system(config);
    system.Boot();
    defense::JgreDefender defender(&system, defense::JgreDefender::Config{});
    defender.Install();
    attack::BenignWorkload::Options benign_options;
    benign_options.app_count = benign_apps;
    benign_options.seed = seed + 1;
    attack::BenignWorkload benign(&system, benign_options);
    std::vector<TimeUs> next_benign;
    Rng rng(seed + 2);
    benign.InstallAll();
    next_benign.resize(benign.packages().size());
    for (auto& t : next_benign) {
      t = system.clock().NowUs() + rng.UniformU64(150'000);
    }
    services::AppProcess* evil =
        attack::InstallAttackApp(&system, "com.evil.app", vuln);
    // The attacker's calls, issued by hand: resolve the service on first
    // use and again after DEAD_OBJECT.
    services::IpcClient client;
    const TimeUs start = system.clock().NowUs();
    while (defender.incidents().empty() && legacy.attacker_calls < 60'000) {
      if (!evil->alive()) break;
      if (!client.valid()) {
        auto resolved = evil->GetService(vuln.service, vuln.descriptor);
        if (resolved.ok()) client = std::move(resolved).value();
      }
      if (client.valid()) {
        const Status status = client.Call(
            vuln.code, [&](binder::Parcel& p) { vuln.write_args(*evil, p); });
        if (status.code() == StatusCode::kUnavailable) {
          client = services::IpcClient();
        }
      }
      ++legacy.attacker_calls;
      const TimeUs now = system.clock().NowUs();
      for (std::size_t i = 0; i < next_benign.size(); ++i) {
        if (now >= next_benign[i]) {
          benign.InteractOnce(i);
          next_benign[i] =
              system.clock().NowUs() + 20'000 + rng.UniformU64(130'000);
        }
      }
      if (system.soft_reboots() > 0) {
        legacy.soft_rebooted = true;
        break;
      }
    }
    legacy.virtual_duration_us = system.clock().NowUs() - start;
    legacy.attacker_killed = !evil->alive();
    if (!defender.incidents().empty()) {
      legacy.incident = true;
      legacy.report = defender.incidents().front();
    }
  }

  sim::DeviceSpec spec;
  spec.WithSeed(seed).WithBenignApps(benign_apps).WithAttack(vuln).WithDefense();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  const experiment::DefendedAttackResult built =
      experiment::Experiment(*device).RunDefendedAttack();

  EXPECT_TRUE(built.incident);
  EXPECT_EQ(built.incident, legacy.incident);
  EXPECT_EQ(built.attacker_calls, legacy.attacker_calls);
  EXPECT_EQ(built.attacker_killed, legacy.attacker_killed);
  EXPECT_EQ(built.soft_rebooted, legacy.soft_rebooted);
  EXPECT_EQ(built.virtual_duration_us, legacy.virtual_duration_us);
  EXPECT_EQ(built.report.reported_at, legacy.report.reported_at);
  EXPECT_EQ(built.report.identified_at, legacy.report.identified_at);
  EXPECT_EQ(built.report.recovered, legacy.report.recovered);
  ASSERT_EQ(built.report.ranking.size(), legacy.report.ranking.size());
  for (std::size_t i = 0; i < built.report.ranking.size(); ++i) {
    EXPECT_EQ(built.report.ranking[i].package,
              legacy.report.ranking[i].package);
    EXPECT_EQ(built.report.ranking[i].score, legacy.report.ranking[i].score);
  }
}

TEST(DeviceFactoryTest, TracingDoesNotPerturbTheSimulation) {
  const auto run = [](bool traced) {
    sim::DeviceSpec spec;
    spec.WithSeed(13).WithBenignApps(2).WithAttack(Toast()).WithDefense();
    if (traced) spec.WithTrace().WithMetrics();
    auto device = sim::DeviceFactory(spec).CreateDevice();
    return experiment::Experiment(*device).RunDefendedAttack();
  };
  const auto plain = run(false);
  const auto traced = run(true);
  EXPECT_EQ(plain.incident, traced.incident);
  EXPECT_EQ(plain.attacker_calls, traced.attacker_calls);
  EXPECT_EQ(plain.virtual_duration_us, traced.virtual_duration_us);
  EXPECT_EQ(plain.report.identified_at, traced.report.identified_at);
}

// --- Drive's per-step observer ---------------------------------------------

TEST(DriveObserverTest, SeesEveryIssuedCallWithItsStartTime) {
  sim::DeviceSpec spec;
  spec.WithSeed(5).WithAttack(Toast()).WithMaxAttackerCalls(300);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  const SimClock& clock = device->system().clock();
  const attack::AttackStrategy& attacker = *device->attacker();
  // No benign apps and no think time: each call starts where the last ended.
  TimeUs last_end = clock.NowUs();
  int observed = 0;
  (void)experiment::Drive(
      *device, device->attacker(), experiment::StopRule::kFirstIncident,
      std::numeric_limits<TimeUs>::max(), [&](TimeUs step_start_us) {
        ++observed;
        EXPECT_EQ(attacker.stats().calls_issued, observed);
        EXPECT_EQ(step_start_us, last_end);
        EXPECT_GT(clock.NowUs(), step_start_us);
        last_end = clock.NowUs();
      });
  EXPECT_EQ(observed, 300);
}

TEST(DriveObserverTest, ParkedDripStepsAreNotObserved) {
  sim::DeviceSpec spec;
  spec.WithSeed(5);
  auto device = sim::DeviceFactory(spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  attack::AttackPlan plan;
  plan.name = "sub_alarm_drip";
  // A ceiling 64 JGRs above the boot footprint: the drip parks after a few
  // dozen calls, then idles in 10 ms steps.
  plan.alarm_margin = 0;
  plan.assumed_alarm_threshold = system.SystemServerJgrCount() + 64;
  std::unique_ptr<attack::AttackStrategy> drip = attack::MakeStrategy(plan);
  ASSERT_TRUE(drip->Setup(system).ok());
  int observed = 0;
  (void)experiment::Drive(*device, drip.get(), experiment::StopRule::kHorizon,
                          system.clock().NowUs() + 2'000'000,
                          [&](TimeUs) { ++observed; });
  EXPECT_GT(observed, 0);
  EXPECT_EQ(observed, drip->stats().calls_issued);
  // Unparked, 2 s at 384 adds/s would be ~380 calls: most steps parked.
  EXPECT_LT(observed, 100);
}

TEST(DriveObserverTest, ObservingDoesNotPerturbTheDrive) {
  const attack::VulnSpec* clipboard =
      attack::FindVulnerability("clipboard", "addPrimaryClipChangedListener");
  ASSERT_NE(clipboard, nullptr);
  const auto run = [clipboard](bool observe) {
    // The defender stops the flood within ~15 s; the drive then idles on to
    // the 30 s horizon.
    sim::DeviceSpec spec;
    spec.WithSeed(9).WithBenignApps(3).WithAttack(*clipboard).WithDefense();
    auto device = sim::DeviceFactory(spec).CreateDevice();
    core::AndroidSystem& system = device->system();
    int observed = 0;
    experiment::StepObserver on_step;
    if (observe) on_step = [&](TimeUs) { ++observed; };
    const experiment::DriveResult result = experiment::Drive(
        *device, device->attacker(), experiment::StopRule::kHorizon,
        system.clock().NowUs() + 30'000'000, on_step);
    EXPECT_TRUE(result.incident);
    EXPECT_TRUE(result.attacker_killed);
    EXPECT_EQ(observed, observe ? device->attacker()->stats().calls_issued : 0);
    return std::make_tuple(result.soft_rebooted, result.incident,
                           result.attacker_killed, result.virtual_duration_us,
                           system.clock().NowUs(),
                           device->attacker()->stats().calls_issued);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ExperimentTraceTest, IdenticalRunsYieldIdenticalTraceBytes) {
  const auto trace_of = [] {
    sim::DeviceSpec spec;
    spec.WithSeed(17).WithBenignApps(2).WithAttack(Toast()).WithDefense()
        .WithTrace();
    auto device = sim::DeviceFactory(spec).CreateDevice();
    (void)experiment::Experiment(*device).RunDefendedAttack();
    return obs::ChromeTraceJson(device->bus(), *device->trace());
  };
  const std::string first = trace_of();
  const std::string second = trace_of();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ExperimentTraceTest, DefendedAttackTraceCoversAllLayers) {
  sim::DeviceSpec spec;
  spec.WithSeed(17).WithBenignApps(2).WithAttack(Toast()).WithDefense()
      .WithTrace().WithMetrics();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  (void)experiment::Experiment(*device).RunDefendedAttack();
  ASSERT_NE(device->trace(), nullptr);
  bool saw[obs::kCategoryCount] = {};
  const auto& ring = device->trace()->events();
  for (std::uint64_t i = ring.first_index(); i < ring.end_index(); ++i) {
    saw[static_cast<unsigned>(ring.At(i).category)] = true;
  }
  EXPECT_TRUE(saw[static_cast<unsigned>(obs::Category::kJgr)]);
  EXPECT_TRUE(saw[static_cast<unsigned>(obs::Category::kIpc)]);
  // And the metrics sink tallied the same stream.
  ASSERT_NE(device->metrics(), nullptr);
  EXPECT_GT(device->metrics()->counters().at("jgr.adds"), 0);
  EXPECT_GT(device->metrics()->counters().at("ipc.calls"), 0);
#if JGRE_TRACE_ENABLED
  // Defense annotations are trace-only: -DJGRE_OBS_TRACING=OFF compiles
  // their emission out entirely.
  EXPECT_TRUE(saw[static_cast<unsigned>(obs::Category::kDefense)]);
  EXPECT_EQ(device->metrics()->counters().at("defense.incidents"), 1);
#endif
}

}  // namespace
}  // namespace jgre
