// Harness tests: work-stealing pool semantics, ordered result collection,
// the shared bench CLI, JSON emission, and the determinism contract — a
// parallel run must produce bit-identical results to a serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "experiment/experiment.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "harness/thread_pool.h"
#include "sim/device.h"

namespace jgre::harness {
namespace {

// --- ThreadPool -------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, IdleWorkersStealFromBusyOnes) {
  ThreadPool pool(2);
  std::atomic<int> quick_done{0};
  // Round-robin puts the blocker on worker 0 and half the quick tasks on its
  // queue. The blocker spins until every quick task ran — so the quick tasks
  // stuck behind it can only have been stolen by worker 1.
  pool.Submit([&quick_done] {
    while (quick_done.load() < 4) std::this_thread::yield();
  });
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&quick_done] { quick_done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(quick_done.load(), 4);
  EXPECT_GE(pool.steal_count(), 2);
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
}

// --- RunOrdered -------------------------------------------------------------------

TEST(RunOrderedTest, ResultsArriveInSubmissionOrder) {
  const auto square = [](std::size_t i) { return static_cast<int>(i * i); };
  const auto serial = RunOrdered<int>(32, 1, square);
  const auto parallel = RunOrdered<int>(32, 4, square);
  ASSERT_EQ(serial.size(), 32u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], static_cast<int>(i * i));
  }
  EXPECT_EQ(serial, parallel);
}

TEST(RunOrderedTest, MoreJobsThanTasksIsFine) {
  const auto results =
      RunOrdered<std::size_t>(3, 16, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(results, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(RunOrderedTest, ZeroTasks) {
  EXPECT_TRUE(RunOrdered<int>(0, 4, [](std::size_t) { return 1; }).empty());
}

TEST(RunOrderedTest, FirstExceptionPropagates) {
  const auto task = [](std::size_t i) -> int {
    if (i == 5) throw std::runtime_error("task 5 failed");
    return static_cast<int>(i);
  };
  EXPECT_THROW(RunOrdered<int>(8, 4, task), std::runtime_error);
  EXPECT_THROW(RunOrdered<int>(8, 1, task), std::runtime_error);
}

// --- CLI --------------------------------------------------------------------------

HarnessOptions Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  HarnessSpec spec;
  spec.name = "test";
  spec.default_seed = 42;
  spec.supports_trace = true;
  spec.supports_metrics = true;
  spec.extra_flags = {{"--curves", false, "boolean bench flag"},
                      {"--top", true, "bench flag taking a value"}};
  return ParseHarnessOptions(spec, static_cast<int>(argv.size()),
                             argv.data());
}

TEST(HarnessCliTest, Defaults) {
  const auto opts = Parse({});
  EXPECT_FALSE(opts.help);
  EXPECT_TRUE(opts.error.empty());
  EXPECT_EQ(opts.jobs, 1);
  EXPECT_EQ(opts.seed, 42u);
  EXPECT_TRUE(opts.emit_json);
  EXPECT_EQ(opts.json_path, "BENCH_test.json");
  EXPECT_TRUE(opts.extra.empty());
}

TEST(HarnessCliTest, ParsesSharedFlags) {
  const auto opts =
      Parse({"--jobs", "3", "--seed", "1234", "--json", "/tmp/out.json"});
  EXPECT_TRUE(opts.error.empty());
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_EQ(opts.seed, 1234u);
  EXPECT_EQ(opts.json_path, "/tmp/out.json");
}

TEST(HarnessCliTest, JobsZeroMeansAllCores) {
  const auto opts = Parse({"--jobs", "0"});
  EXPECT_TRUE(opts.error.empty());
  EXPECT_GE(opts.jobs, 1);
}

TEST(HarnessCliTest, NoJsonAndDeclaredFlagsPassThrough) {
  const auto opts = Parse({"--no-json", "--curves"});
  EXPECT_TRUE(opts.error.empty());
  EXPECT_FALSE(opts.emit_json);
  EXPECT_EQ(opts.extra, (std::vector<std::string>{"--curves"}));
  EXPECT_TRUE(HasFlag(opts, "--curves"));
  EXPECT_FALSE(HasFlag(opts, "--top"));
}

TEST(HarnessCliTest, DeclaredValueFlagsLandInExtra) {
  const auto opts = Parse({"--top", "7"});
  EXPECT_TRUE(opts.error.empty());
  EXPECT_EQ(opts.extra, (std::vector<std::string>{"--top", "7"}));
  ASSERT_NE(FlagValue(opts, "--top"), nullptr);
  EXPECT_EQ(*FlagValue(opts, "--top"), "7");
  EXPECT_EQ(FlagValue(opts, "--curves"), nullptr);
}

TEST(HarnessCliTest, UnknownFlagsAreRejected) {
  EXPECT_FALSE(Parse({"--bogus"}).error.empty());
  EXPECT_FALSE(Parse({"stray"}).error.empty());
  // Undeclared-for-this-bench shared flags are rejected too.
  HarnessSpec bare;
  bare.name = "bare";
  std::string prog = "bench_bare", flag = "--trace", value = "t.json";
  char* argv[] = {prog.data(), flag.data(), value.data()};
  EXPECT_FALSE(ParseHarnessOptions(bare, 3, argv).error.empty());
}

TEST(HarnessCliTest, EqualsSpellingAndObservabilityFlags) {
  const auto opts =
      Parse({"--jobs=2", "--trace=/tmp/t.json", "--metrics", "--top=3"});
  EXPECT_TRUE(opts.error.empty());
  EXPECT_EQ(opts.jobs, 2);
  EXPECT_EQ(opts.trace_path, "/tmp/t.json");
  EXPECT_TRUE(opts.emit_metrics);
  ASSERT_NE(FlagValue(opts, "--top"), nullptr);
  EXPECT_EQ(*FlagValue(opts, "--top"), "3");
}

TEST(HarnessCliTest, BadNumbersAreErrors) {
  EXPECT_FALSE(Parse({"--jobs", "banana"}).error.empty());
  EXPECT_FALSE(Parse({"--seed", "-3"}).error.empty());
  EXPECT_FALSE(Parse({"--jobs"}).error.empty());   // missing value
  EXPECT_FALSE(Parse({"--trace"}).error.empty());  // missing value
  EXPECT_FALSE(Parse({"--metrics=yes"}).error.empty());
  EXPECT_FALSE(Parse({"--curves=yes"}).error.empty());
}

// The strict readers benches use for their own value flags: an absent flag
// keeps the default; a bad value returns false (the bench exits 2) and
// leaves the default in place.
TEST(HarnessCliTest, IntFlagReadsANonNegativeInt) {
  int budget = 48;
  EXPECT_TRUE(IntFlag(Parse({}), "--top", &budget));
  EXPECT_EQ(budget, 48);
  EXPECT_TRUE(IntFlag(Parse({"--top", "240"}), "--top", &budget));
  EXPECT_EQ(budget, 240);
  EXPECT_TRUE(IntFlag(Parse({"--top=0"}), "--top", &budget));
  EXPECT_EQ(budget, 0);
  EXPECT_TRUE(IntFlag(Parse({"--top", "2147483647"}), "--top", &budget));
  EXPECT_EQ(budget, std::numeric_limits<int>::max());
}

TEST(HarnessCliTest, IntFlagRejectsOutOfRangeNegativeAndTrailingGarbage) {
  // 4294967356 is 2^32 + 60: narrowed to int it would read as 60.
  for (const char* bad : {"2147483648", "4294967356", "9223372036854775808",
                          "-1", "12abc", "1.5", "banana"}) {
    int budget = 48;
    EXPECT_FALSE(IntFlag(Parse({"--top", bad}), "--top", &budget)) << bad;
    EXPECT_EQ(budget, 48) << bad;
  }
}

TEST(HarnessCliTest, DoubleFlagReadsAFiniteNonNegativeNumber) {
  double floor = 0.9;
  EXPECT_TRUE(DoubleFlag(Parse({}), "--top", &floor));
  EXPECT_EQ(floor, 0.9);
  EXPECT_TRUE(DoubleFlag(Parse({"--top", "0.75"}), "--top", &floor));
  EXPECT_EQ(floor, 0.75);
  EXPECT_TRUE(DoubleFlag(Parse({"--top=3"}), "--top", &floor));
  EXPECT_EQ(floor, 3.0);
}

TEST(HarnessCliTest, DoubleFlagRejectsNonFiniteNegativeAndTrailingGarbage) {
  // NaN would pass a "< 0" check and then fail no floor comparison.
  for (const char* bad :
       {"nan", "NaN", "inf", "infinity", "-inf", "-0.5", "0.9x", "banana"}) {
    double floor = 0.9;
    EXPECT_FALSE(DoubleFlag(Parse({"--top", bad}), "--top", &floor)) << bad;
    EXPECT_EQ(floor, 0.9) << bad;
  }
}

// --- Json -------------------------------------------------------------------------

TEST(JsonTest, DumpIsStableAndOrdered) {
  Json doc = Json::Object();
  doc.Set("b", 1).Set("a", 2.5).Set("s", "x\"y\n");
  doc.Set("arr", Json::Array().Push(1).Push(false).Push(nullptr));
  doc.Set("empty_obj", Json::Object());
  const std::string expected =
      "{\n"
      "  \"b\": 1,\n"
      "  \"a\": 2.5,\n"
      "  \"s\": \"x\\\"y\\n\",\n"
      "  \"arr\": [\n"
      "    1,\n"
      "    false,\n"
      "    null\n"
      "  ],\n"
      "  \"empty_obj\": {}\n"
      "}\n";
  EXPECT_EQ(doc.Dump(), expected);
  // Byte-stable: dumping twice yields the same bytes.
  EXPECT_EQ(doc.Dump(), doc.Dump());
}

TEST(JsonTest, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(Json(0.1).Dump(), "0.1\n");
  EXPECT_EQ(Json(1e21).Dump(), "1e+21\n");
  EXPECT_EQ(Json(3.0).Dump(), "3\n");
}

// --- Determinism: serial vs parallel simulation runs ------------------------------

struct SimResult {
  int calls = 0;
  std::size_t peak_jgr = 0;
  std::uint64_t end_us = 0;
  bool succeeded = false;
};

Json ToJson(const std::vector<SimResult>& results) {
  Json arr = Json::Array();
  for (const SimResult& r : results) {
    arr.Push(Json::Object()
                 .Set("calls", r.calls)
                 .Set("peak_jgr", r.peak_jgr)
                 .Set("end_us", r.end_us)
                 .Set("succeeded", r.succeeded));
  }
  return arr;
}

TEST(HarnessDeterminismTest, ParallelRunMatchesSerialBitForBit) {
  // Six independent short attacks (different interfaces and seeds), exactly
  // as the figure benches run them. The ordered results — and their JSON
  // serialization — must not depend on the worker count.
  const auto vulns = attack::SystemServerVulnerabilities();
  ASSERT_GE(vulns.size(), 6u);
  const auto run_one = [&vulns](std::size_t i) {
    sim::DeviceSpec spec;
    spec.WithSeed(100 + i).WithAttack(vulns[i]).WithMaxAttackerCalls(250);
    auto device = sim::DeviceFactory(spec).CreateDevice();
    core::AndroidSystem& system = device->system();
    SimResult r;
    const experiment::DriveResult drive = experiment::Drive(
        *device, device->attacker(), experiment::StopRule::kFirstIncident,
        std::numeric_limits<TimeUs>::max(), [&](TimeUs) {
          r.peak_jgr = std::max(r.peak_jgr, system.SystemServerJgrCount());
        });
    r.calls = device->attacker()->stats().calls_issued;
    r.end_us = system.clock().NowUs();
    r.succeeded = drive.soft_rebooted;
    return r;
  };
  const auto serial = RunOrdered<SimResult>(6, 1, run_one);
  const auto parallel = RunOrdered<SimResult>(6, 4, run_one);
  const auto parallel2 = RunOrdered<SimResult>(6, 3, run_one);
  EXPECT_EQ(ToJson(serial).Dump(), ToJson(parallel).Dump());
  EXPECT_EQ(ToJson(serial).Dump(), ToJson(parallel2).Dump());
  // And the runs did real work.
  for (const SimResult& r : serial) {
    EXPECT_EQ(r.calls, 250);
    EXPECT_GT(r.peak_jgr, 0u);
  }
}

}  // namespace
}  // namespace jgre::harness
