// Tests for the §VI (Discussion) extensions:
//  * fd-exhaustion DoS — a resource the JGRE pipeline and defense are
//    structurally blind to;
//  * multi-path attacks — one IPC method, k code paths, k delay clusters;
//  * local-reference frames — why only *global* references leak across calls.
#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "defense/scoring.h"
#include "model/corpus.h"
#include "services/ipc_client.h"
#include "services/safe_service.h"

namespace jgre {
namespace {

namespace sv = jgre::services;

// --- Local reference frames ----------------------------------------------------

TEST(LocalRefTest, TransactionFrameReleasesLocalRefs) {
  core::AndroidSystem system;
  system.Boot();
  auto* app = system.InstallApp("com.test.app");
  rt::Runtime* runtime = system.system_runtime();
  const std::size_t locals_before = runtime->LocalRefCount();
  auto* safe = system.FindServiceObject("dropbox");
  auto client = app->GetService("dropbox", safe->InterfaceDescriptor());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.value()
                    .Call(sv::GenericSafeService::TRANSACTION_oneShot,
                          [&](binder::Parcel& p) {
                            p.WriteStrongBinder(app->NewBinder("transient"));
                          })
                    .ok());
    // Every frame popped: the local table never accumulates across calls.
    ASSERT_EQ(runtime->LocalRefCount(), locals_before);
  }
}

TEST(LocalRefTest, FrameNestingBalances) {
  SimClock clock;
  rt::Runtime::Config config;
  config.name = "t";
  rt::Runtime runtime(&clock, config);
  EXPECT_FALSE(runtime.InLocalFrame());
  const auto outer = runtime.PushLocalFrame();
  EXPECT_TRUE(runtime.InLocalFrame());
  ASSERT_TRUE(runtime.AddLocalRef(runtime.AllocPlainObject()).ok());
  const auto inner = runtime.PushLocalFrame();
  ASSERT_TRUE(runtime.AddLocalRef(runtime.AllocPlainObject()).ok());
  EXPECT_EQ(runtime.LocalRefCount(), 2u);
  runtime.PopLocalFrame(inner);
  EXPECT_EQ(runtime.LocalRefCount(), 1u);
  runtime.PopLocalFrame(outer);
  EXPECT_EQ(runtime.LocalRefCount(), 0u);
  EXPECT_FALSE(runtime.InLocalFrame());
}

// --- fd exhaustion ----------------------------------------------------------------

TEST(FdExhaustionTest, KernelEnforcesRlimitNofile) {
  os::Kernel kernel;
  os::Kernel::ProcessConfig config;
  config.with_runtime = false;
  const Pid pid = kernel.CreateProcess("p", Uid{10001}, config);
  const int start = kernel.OpenFdCount(pid);
  ASSERT_TRUE(kernel.AllocFds(pid, 10).ok());
  EXPECT_EQ(kernel.OpenFdCount(pid), start + 10);
  kernel.ReleaseFds(pid, 5);
  EXPECT_EQ(kernel.OpenFdCount(pid), start + 5);
  EXPECT_EQ(kernel.AllocFds(pid, 100'000).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(kernel.IsAlive(pid));  // ordinary process survives EMFILE
}

TEST(FdExhaustionTest, PipelineCorrectlyIgnoresFdLeakAsJgreCandidate) {
  core::AndroidSystem system;
  system.Boot();
  model::CodeModel model = model::BuildAospModel(system);
  analysis::AnalysisReport report = analysis::RunAnalysis(model);
  // addFile takes no binder and creates no JGR: never a JGRE candidate...
  for (const std::size_t index : report.Candidates()) {
    EXPECT_NE(report.interfaces[index].method, "addFile");
  }
  // ...but the same methodology pointed at the fd sink finds all 71 safe
  // services' addFile methods.
  const auto fd_risks = analysis::ExtractOtherResourceRisks(model);
  EXPECT_EQ(fd_risks.size(),
            sv::GenericSafeService::SafeServiceNames().size());
}

TEST(FdExhaustionTest, FdAttackSoftRebootsDespiteJgreDefense) {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();
  auto* evil = system.InstallApp("com.evil.fd");
  auto* safe = system.FindServiceObject("dropbox");
  auto client = evil->GetService("dropbox", safe->InterfaceDescriptor());
  ASSERT_TRUE(client.ok());
  int calls = 0;
  while (system.soft_reboots() == 0 && calls < 5000) {
    (void)client.value().Call(sv::GenericSafeService::TRANSACTION_addFile,
                              [&](binder::Parcel& p) {
                                p.WriteString("/data/evil.bin");
                                p.WriteFileDescriptor();
                              });
    ++calls;
  }
  // The fd table (1024) empties out long before any JGR threshold: the JGRE
  // defense never fires and the device soft-reboots — §VI's point that the
  // defense "cannot be directly applied to other resources".
  EXPECT_EQ(system.soft_reboots(), 1);
  EXPECT_LT(calls, 1100);
  EXPECT_TRUE(defender.incidents().empty());
}

TEST(FdExhaustionTest, HonestFdUseIsBounded) {
  core::AndroidSystem system;
  system.Boot();
  auto* app = system.InstallApp("com.honest.app");
  auto* safe = system.FindServiceObject("dropbox");
  auto client = app->GetService("dropbox", safe->InterfaceDescriptor());
  ASSERT_TRUE(client.ok());
  const int before = system.kernel().OpenFdCount(system.system_server_pid());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.value()
                    .Call(sv::GenericSafeService::TRANSACTION_addFile,
                          [&](binder::Parcel& p) {
                            p.WriteString("/data/log.txt");
                            p.WriteFileDescriptor();
                          })
                    .ok());
  }
  EXPECT_EQ(system.kernel().OpenFdCount(system.system_server_pid()),
            before + 20);
}

// --- Multi-path scoring -----------------------------------------------------------

// Synthetic two-path attacker: calls alternate between a fast path
// (Delay ~ 700 µs) and a slow path (Delay ~ 9,000 µs).
constexpr defense::IpcTypeKey kEvilType = defense::MakeIpcTypeKey(1, 1);

struct TwoPathWorkload {
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
};

TwoPathWorkload MakeTwoPathWorkload(int n) {
  TwoPathWorkload w;
  for (int i = 0; i < n; ++i) {
    const TimeUs t = 10'000 + static_cast<TimeUs>(i) * 20'000;
    w.calls.push_back({t, kEvilType});
    w.adds.push_back(t + (i % 2 == 0 ? 700 : 9'000));
  }
  std::sort(w.adds.begin(), w.adds.end());
  return w;
}

defense::ScoringParams PathParams(int max_paths) {
  defense::ScoringParams params;
  params.delta_us = 500;
  params.bucket_us = 50;
  params.max_delay_us = 20'000;
  params.analysis_window_us = 0;
  params.max_paths = max_paths;
  return params;
}

TEST(MultiPathScoringTest, SinglePathScorerSeesHalfTheAttack) {
  const auto w = MakeTwoPathWorkload(200);
  const auto score = defense::JgreScoreForApp(w.calls, w.adds, PathParams(1));
  EXPECT_NEAR(score, 100, 10);  // only one delay cluster counted
}

TEST(MultiPathScoringTest, TwoPathScorerRecoversTheFullCount) {
  const auto w = MakeTwoPathWorkload(200);
  const auto score = defense::JgreScoreForApp(w.calls, w.adds, PathParams(2));
  EXPECT_NEAR(score, 200, 15);
}

TEST(MultiPathScoringTest, ExtraPathsDoNotInflateSinglePathAttackers) {
  // A one-path attacker must score (almost) the same under k=1 and k=3:
  // peeling only adds residual noise peaks, not another full cluster.
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  for (int i = 0; i < 200; ++i) {
    const TimeUs t = 10'000 + static_cast<TimeUs>(i) * 20'000;
    calls.push_back({t, kEvilType});
    adds.push_back(t + 700);
  }
  const auto k1 = defense::JgreScoreForApp(calls, adds, PathParams(1));
  const auto k3 = defense::JgreScoreForApp(calls, adds, PathParams(3));
  EXPECT_EQ(k1, 200);
  EXPECT_LE(k3, k1 + 10);
}

TEST(MultiPathScoringTest, AllEnginesAgreeWithPeeling) {
  const auto w = MakeTwoPathWorkload(150);
  for (int k : {1, 2, 3}) {
    const auto batched =
        defense::JgreScoreForApp(w.calls, w.adds, PathParams(k));
    const auto naive =
        defense::NaiveJgreScoreForApp(w.calls, w.adds, PathParams(k));
    EXPECT_EQ(batched, naive) << "k=" << k;
  }
}

TEST(MultiPathScoringTest, LiveTwoInterfaceAttackerFullyScored) {
  // An attacker alternating two interfaces of the same service is the
  // degenerate multi-path case Algorithm 1 already handles: types are scored
  // independently and summed.
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender::Config config;
  config.monitor.report_threshold = 1'000'000;  // observe only
  defense::JgreDefender defender(&system, config);
  defender.Install();
  const auto* v1 = attack::FindVulnerability("audio", "startWatchingRoutes");
  const auto* v2 =
      attack::FindVulnerability("audio", "registerRemoteController");
  auto* evil = system.InstallApp("com.evil.multi");
  // One app, two interfaces: the app issues the calls itself.
  auto c1 = evil->GetService(v1->service, v1->descriptor);
  auto c2 = evil->GetService(v2->service, v2->descriptor);
  ASSERT_TRUE(c1.ok() && c2.ok());
  for (int i = 0; i < 4000; ++i) {
    const attack::VulnSpec& vuln = i % 2 == 0 ? *v1 : *v2;
    services::IpcClient& client = i % 2 == 0 ? c1.value() : c2.value();
    (void)client.Call(vuln.code, [&](binder::Parcel& p) {
      vuln.write_args(*evil, p);
    });
  }
  defense::JgrMonitor* monitor = defender.MonitorFor("system_server");
  ASSERT_TRUE(monitor->recording());
  auto ranking = defender.RankApps(*monitor, system.system_server_pid(),
                                   defender.config().scoring);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front().package, "com.evil.multi");
  // Both interface types contribute: the score covers most recorded calls.
  EXPECT_GT(ranking.front().score, ranking.front().ipc_calls / 2);
}

}  // namespace
}  // namespace jgre
