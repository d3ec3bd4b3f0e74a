// Kernel + LMK tests: process lifecycle, death notification, soft-reboot
// plumbing, memory accounting and low-memory victim selection.
#include <gtest/gtest.h>

#include "os/kernel.h"
#include "os/lmk.h"

namespace jgre::os {
namespace {

Kernel::ProcessConfig AppConfig(std::int64_t memory_kb = 10 * 1024,
                                int adj = kForegroundAppAdj) {
  Kernel::ProcessConfig config;
  config.with_runtime = true;
  config.boot_class_refs = 10;
  config.memory_kb = memory_kb;
  config.oom_score_adj = adj;
  return config;
}

TEST(KernelTest, CreateAndKillProcess) {
  Kernel kernel;
  const Pid pid = kernel.CreateProcess("app", Uid{10001}, AppConfig());
  EXPECT_TRUE(kernel.IsAlive(pid));
  EXPECT_EQ(kernel.LiveProcessCount(), 1u);
  ASSERT_NE(kernel.FindProcess(pid), nullptr);
  EXPECT_EQ(kernel.FindProcess(pid)->uid, Uid{10001});
  kernel.KillProcess(pid, "test");
  EXPECT_FALSE(kernel.IsAlive(pid));
  EXPECT_EQ(kernel.LiveProcessCount(), 0u);
  // Idempotent.
  kernel.KillProcess(pid, "again");
  EXPECT_EQ(kernel.LiveProcessCount(), 0u);
}

TEST(KernelTest, DeathListenersFireOncePerDeath) {
  Kernel kernel;
  std::vector<Pid> deaths;
  kernel.AddDeathListener(
      [&](Pid pid, const std::string&) { deaths.push_back(pid); });
  const Pid a = kernel.CreateProcess("a", Uid{10001}, AppConfig());
  const Pid b = kernel.CreateProcess("b", Uid{10002}, AppConfig());
  kernel.KillProcess(a, "x");
  kernel.KillProcess(a, "x");  // no double-fire
  kernel.KillProcess(b, "y");
  ASSERT_EQ(deaths.size(), 2u);
  EXPECT_EQ(deaths[0], a);
  EXPECT_EQ(deaths[1], b);
}

TEST(KernelTest, MemoryAccountingFollowsProcesses) {
  Kernel::Config config;
  config.total_ram_kb = 100 * 1024;
  Kernel kernel(config);
  const Pid pid = kernel.CreateProcess("fat", Uid{10001}, AppConfig(30 * 1024));
  EXPECT_EQ(kernel.UsedMemoryKb(), 30 * 1024);
  kernel.SetProcessMemory(pid, 40 * 1024);
  EXPECT_EQ(kernel.UsedMemoryKb(), 40 * 1024);
  EXPECT_EQ(kernel.FreeMemoryKb(), 60 * 1024);
  kernel.KillProcess(pid, "done");
  EXPECT_EQ(kernel.UsedMemoryKb(), 0);
}

TEST(KernelTest, CriticalDeathSetsPendingSoftReboot) {
  Kernel kernel;
  Kernel::ProcessConfig config = AppConfig();
  config.critical = true;
  const Pid ss = kernel.CreateProcess("system_server", kSystemUid, config);
  EXPECT_FALSE(kernel.HasPendingSoftReboot());
  kernel.KillProcess(ss, "jgr overflow");
  EXPECT_TRUE(kernel.HasPendingSoftReboot());
  EXPECT_EQ(kernel.soft_reboot_count(), 1);
  auto pending = kernel.TakePendingSoftReboot();
  ASSERT_TRUE(pending.has_value());
  EXPECT_NE(pending->find("jgr overflow"), std::string::npos);
  EXPECT_FALSE(kernel.HasPendingSoftReboot());
}

TEST(KernelTest, RuntimeAbortKillsOwningProcess) {
  Kernel kernel;
  Kernel::ProcessConfig config = AppConfig();
  config.max_global_refs = 20;
  config.boot_class_refs = 0;
  const Pid pid = kernel.CreateProcess("app", Uid{10001}, config);
  rt::Runtime* runtime = kernel.FindProcess(pid)->runtime.get();
  for (int i = 0; i < 25; ++i) {
    (void)runtime->AllocManagedObject(rt::ObjectKind::kPlain);
  }
  EXPECT_TRUE(runtime->aborted());
  EXPECT_FALSE(kernel.IsAlive(pid));
}

TEST(KernelTest, ReapDestroysDeadRuntimesOnly) {
  Kernel kernel;
  const Pid dead = kernel.CreateProcess("dead", Uid{10001}, AppConfig());
  const Pid alive = kernel.CreateProcess("alive", Uid{10002}, AppConfig());
  kernel.KillProcess(dead, "x");
  kernel.ReapDeadProcesses();
  EXPECT_EQ(kernel.FindProcess(dead)->runtime, nullptr);
  EXPECT_NE(kernel.FindProcess(alive)->runtime, nullptr);
}

TEST(KernelTest, LivePidsForUidFiltersCorrectly) {
  Kernel kernel;
  kernel.CreateProcess("a1", Uid{10001}, AppConfig());
  kernel.CreateProcess("a2", Uid{10001}, AppConfig());
  kernel.CreateProcess("b", Uid{10002}, AppConfig());
  EXPECT_EQ(kernel.LivePidsForUid(Uid{10001}).size(), 2u);
  EXPECT_EQ(kernel.LivePidsForUid(Uid{10002}).size(), 1u);
  EXPECT_TRUE(kernel.LivePidsForUid(Uid{10003}).empty());
}

// --- LowMemoryKiller ----------------------------------------------------------

class LmkTest : public ::testing::Test {
 protected:
  LmkTest() : kernel_(MakeConfig()) {
    kernel_.SetLowMemoryKiller(std::make_unique<LowMemoryKiller>(
        &kernel_, LowMemoryKiller::DefaultLevels()));
  }
  static Kernel::Config MakeConfig() {
    Kernel::Config config;
    config.total_ram_kb = 400 * 1024;  // small device to trigger LMK easily
    return config;
  }
  Kernel kernel_;
};

TEST_F(LmkTest, KillsHighestAdjFirst) {
  const Pid fg = kernel_.CreateProcess("fg", Uid{10001},
                                       AppConfig(50 * 1024, kForegroundAppAdj));
  const Pid cached = kernel_.CreateProcess(
      "cached", Uid{10002}, AppConfig(50 * 1024, kCachedAppMaxAdj));
  // Push free memory below the cached-band threshold (180 MB): allocate.
  kernel_.CreateProcess("hog", Uid{10003},
                        AppConfig(130 * 1024, kForegroundAppAdj));
  EXPECT_FALSE(kernel_.IsAlive(cached));  // cached app sacrificed
  EXPECT_TRUE(kernel_.IsAlive(fg));
  EXPECT_GE(kernel_.lmk()->total_kills(), 1);
}

TEST_F(LmkTest, AdjBelowTheViolatedBandIsSpared) {
  // Free memory between the 900-band (144 MB) and 906-band (180 MB)
  // thresholds: only adj >= 906 processes are eligible, and there are none.
  const Pid cached = kernel_.CreateProcess(
      "cached", Uid{10002}, AppConfig(50 * 1024, kCachedAppMinAdj));
  kernel_.CreateProcess("hog", Uid{10003},
                        AppConfig(180 * 1024, kForegroundAppAdj));
  EXPECT_LT(kernel_.FreeMemoryKb(), 184320);
  EXPECT_GE(kernel_.FreeMemoryKb(), 147456);
  EXPECT_TRUE(kernel_.IsAlive(cached));
  EXPECT_EQ(kernel_.lmk()->total_kills(), 0);
}

TEST_F(LmkTest, NeverKillsCriticalProcesses) {
  Kernel::ProcessConfig critical = AppConfig(100 * 1024, kSystemAdj);
  critical.critical = true;
  const Pid ss = kernel_.CreateProcess("system_server", kSystemUid, critical);
  // Exhaust memory with nothing killable but the critical process.
  kernel_.CreateProcess("hog", kRootUid, AppConfig(250 * 1024, kNativeAdj));
  EXPECT_TRUE(kernel_.IsAlive(ss));
}

TEST_F(LmkTest, PrefersLargerRssAmongEqualAdj) {
  const Pid small = kernel_.CreateProcess(
      "small", Uid{10001}, AppConfig(20 * 1024, kCachedAppMaxAdj));
  const Pid big = kernel_.CreateProcess(
      "big", Uid{10002}, AppConfig(60 * 1024, kCachedAppMaxAdj));
  kernel_.CreateProcess("hog", Uid{10003},
                        AppConfig(150 * 1024, kForegroundAppAdj));
  EXPECT_FALSE(kernel_.IsAlive(big));
  EXPECT_TRUE(kernel_.IsAlive(small));
}

TEST_F(LmkTest, CascadesUntilFreeMemoryRecovers) {
  std::vector<Pid> cached;
  for (int i = 0; i < 6; ++i) {
    cached.push_back(kernel_.CreateProcess("cached" + std::to_string(i),
                                           Uid{10010 + i},
                                           AppConfig(30 * 1024,
                                                     kCachedAppMinAdj + i)));
  }
  kernel_.CreateProcess("hog", Uid{10001},
                        AppConfig(160 * 1024, kForegroundAppAdj));
  // Free memory must be back above the strictest band that had candidates
  // (the cached apps sit at adj 900..905, i.e. the 144 MB band).
  EXPECT_GE(kernel_.FreeMemoryKb(), 147456);
  int survivors = 0;
  for (Pid pid : cached) {
    if (kernel_.IsAlive(pid)) ++survivors;
  }
  EXPECT_LT(survivors, 6);
  EXPECT_GT(survivors, 0);  // it stops once memory recovers
}

}  // namespace
}  // namespace jgre::os
