// Unit tests for the common substrate: clock, RNG, status, strings, stats,
// and the ring buffer backing the IPC log and trace sinks.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace jgre {
namespace {

// --- SimClock ---------------------------------------------------------------

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.NowUs(), 0u);
  clock.AdvanceUs(250);
  EXPECT_EQ(clock.NowUs(), 250u);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.NowUs(), 1000u);
}

TEST(SimClockTest, TimersFireInDeadlineOrder) {
  SimClock clock;
  std::vector<int> fired;
  clock.ScheduleAt(300, [&] { fired.push_back(3); });
  clock.ScheduleAt(100, [&] { fired.push_back(1); });
  clock.ScheduleAt(200, [&] { fired.push_back(2); });
  clock.AdvanceUs(500);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, TimerSeesItsOwnDeadlineAsNow) {
  SimClock clock;
  TimeUs seen = 0;
  clock.ScheduleAt(120, [&] { seen = clock.NowUs(); });
  clock.AdvanceUs(1000);
  EXPECT_EQ(seen, 120u);
  EXPECT_EQ(clock.NowUs(), 1000u);
}

TEST(SimClockTest, TimerCanScheduleWithinTheAdvanceWindow) {
  SimClock clock;
  std::vector<TimeUs> fired;
  clock.ScheduleAt(100, [&] {
    fired.push_back(clock.NowUs());
    clock.ScheduleAt(150, [&] { fired.push_back(clock.NowUs()); });
  });
  clock.AdvanceUs(200);
  EXPECT_EQ(fired, (std::vector<TimeUs>{100, 150}));
}

TEST(SimClockTest, CancelTimerPreventsFiring) {
  SimClock clock;
  bool fired = false;
  const auto id = clock.ScheduleAt(50, [&] { fired = true; });
  clock.CancelTimer(id);
  clock.AdvanceUs(100);
  EXPECT_FALSE(fired);
}

TEST(SimClockTest, PastDeadlineFiresOnNextAdvance) {
  SimClock clock;
  clock.AdvanceUs(500);
  bool fired = false;
  clock.ScheduleAt(100, [&] { fired = true; });  // already past
  clock.AdvanceUs(1);
  EXPECT_TRUE(fired);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(10), 10u);
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {};
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.UniformU64(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 50);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.15);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  // Advancing the fork must not change the parent's future draws.
  Rng b(21);
  (void)b.Fork();
  for (int i = 0; i < 16; ++i) (void)forked.NextU64();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = ResourceExhausted("table full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "RESOURCE_EXHAUSTED: table full");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return InvalidArgument("x"); };
  auto wrapper = [&]() -> Status {
    JGRE_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, StrCatConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("pid=", 42, ", ok=", true), "pid=42, ok=1");
}

// What `std::ostringstream << ...` writes for the same arguments: the
// output StrCat reproduces on both of its paths.
template <typename... Args>
std::string StreamCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

enum class Shade { kDark = 2 };
std::ostream& operator<<(std::ostream& os, Shade shade) {
  return os << "shade#" << static_cast<int>(shade);
}

TEST(StringsTest, StrCatMatchesTheStreamOnBothPaths) {
  const std::string with_nul("a\0b", 3);
  const std::string_view view = "view";
  const char array[] = "array";
  const std::int32_t negative = -123456;
  const std::vector<std::pair<std::string, std::string>> table = {
      // Fast path: strings, chars and integers wider than one byte.
      {StrCat(INT64_MIN), StreamCat(INT64_MIN)},
      {StrCat(INT64_MAX), StreamCat(INT64_MAX)},
      {StrCat(UINT64_MAX), StreamCat(UINT64_MAX)},
      {StrCat(0), StreamCat(0)},
      {StrCat(negative), StreamCat(negative)},
      {StrCat(std::int16_t{-7}, std::uint16_t{65535}),
       StreamCat(std::int16_t{-7}, std::uint16_t{65535})},
      {StrCat('x', with_nul, view, array, "lit"),
       StreamCat('x', with_nul, view, array, "lit")},
      {StrCat("uid ", 10001u, " holds ", std::int64_t{-1}, '#', 7ul),
       StreamCat("uid ", 10001u, " holds ", std::int64_t{-1}, '#', 7ul)},
      // Stream path: any other argument type routes the whole call.
      {StrCat("d=", 1.0 / 3, ' ', 2.5), StreamCat("d=", 1.0 / 3, ' ', 2.5)},
      {StrCat("b=", true, false), StreamCat("b=", true, false)},
      {StrCat("u8=", std::uint8_t{65}, std::int8_t{66}),
       StreamCat("u8=", std::uint8_t{65}, std::int8_t{66})},
      {StrCat("enum=", Shade::kDark, 3), StreamCat("enum=", Shade::kDark, 3)},
  };
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].first, table[i].second) << "row " << i;
  }
  EXPECT_EQ(StrCat(with_nul).size(), 3u);
  EXPECT_EQ(StrCat(UINT64_MAX), "18446744073709551615");
  EXPECT_EQ(StrCat(INT64_MIN), "-9223372036854775808");

  // The paths are chosen by argument type alone.
  EXPECT_TRUE(strings_internal::kAppendsDirectly<std::int64_t>);
  EXPECT_TRUE(strings_internal::kAppendsDirectly<char>);
  EXPECT_TRUE(strings_internal::kAppendsDirectly<std::string_view>);
  EXPECT_TRUE(strings_internal::kAppendsDirectly<char[6]>);
  EXPECT_FALSE(strings_internal::kAppendsDirectly<double>);
  EXPECT_FALSE(strings_internal::kAppendsDirectly<bool>);
  EXPECT_FALSE(strings_internal::kAppendsDirectly<std::uint8_t>);
  EXPECT_FALSE(strings_internal::kAppendsDirectly<Shade>);
}

TEST(StringsTest, StrCatStopsAtANullCStringLikeTheStream) {
  const char* null_text = nullptr;
  EXPECT_EQ(StrCat("before ", null_text, " after", 42),
            StreamCat("before ", null_text, " after", 42));
  EXPECT_EQ(StrCat("before ", null_text, " after", 42), "before ");
}

TEST(StringsTest, SplitAndJoinRoundTrip) {
  const auto parts = StrSplit("a,b,,c", ',');
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrJoin(parts, ","), "a,b,,c");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StrStartsWith("android.permission.X", "android."));
  EXPECT_FALSE(StrStartsWith("an", "android"));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%03d-%s", 7, "x"), "007-x");
}

// --- stats --------------------------------------------------------------------

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
}

TEST(SummaryTest, CdfIsMonotone) {
  Summary s;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) s.Add(rng.UniformDouble());
  auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries series("jgr");
  for (int i = 0; i <= 1000; ++i) {
    series.Add(static_cast<TimeUs>(i), i * 2.0);
  }
  TimeSeries down = series.Downsample(11);
  ASSERT_EQ(down.points().size(), 11u);
  EXPECT_EQ(down.points().front().first, 0u);
  EXPECT_EQ(down.points().back().first, 1000u);
}

// --- RingBuffer -------------------------------------------------------------

TEST(RingBufferTest, WraparoundAtCapacityKeepsLogicalIndices) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.first_index(), 0u);
  ring.Push(4);  // first eviction: value 0 falls off
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  EXPECT_EQ(ring.first_index(), 1u);
  EXPECT_EQ(ring.end_index(), 5u);
  // Logical index i always addresses the i-th value ever pushed.
  for (std::uint64_t i = ring.first_index(); i < ring.end_index(); ++i) {
    EXPECT_EQ(ring.At(i), static_cast<int>(i));
  }
}

}  // namespace
}  // namespace jgre
