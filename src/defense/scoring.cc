#include "defense/scoring.h"

#include <algorithm>
#include <cassert>

namespace jgre::defense {

namespace {

// Exact unsigned division by a loop-invariant divisor via one 128-bit
// multiply (Granlund–Montgomery): with M = floor(2^64/d) + 1,
// hi64(x * M) == x / d for every x below 2^64 / (M*d - 2^64), which is at
// least 2^64/d — far above the microsecond delays this file divides
// (<= max_delay + delta). The per-pair bucket mapping runs two of these, so
// replacing ~25-cycle div instructions with multiplies is most of the
// batched engine's per-pair win.
class FastDiv {
 public:
  explicit FastDiv(std::uint64_t d)
      : d_(d),
        // d == 1 would overflow the magic (and huge d weakens the exactness
        // bound); both fall back to the hardware divide.
        m_(d > 1 && d < (std::uint64_t{1} << 31) ? ~std::uint64_t{0} / d + 1
                                                 : 0) {}
  std::uint64_t Div(std::uint64_t x) const {
    if (m_ == 0) return x / d_;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * m_) >> 64);
  }

 private:
  std::uint64_t d_;
  std::uint64_t m_;
};

// Number of delay buckets the vote axis needs for the given parameters.
std::size_t BucketCount(const ScoringParams& params) {
  return static_cast<std::size_t>((params.max_delay_us + params.delta_us) /
                                  params.bucket_us) +
         2;
}

// The reference vote array: O(interval length) per range add, O(n) per
// peak. Simple enough to be obviously right, which is its whole job.
class NaiveRangeMax {
 public:
  explicit NaiveRangeMax(std::size_t size) : values_(size, 0) {}

  // Adds `delta` to every bucket in [lo, hi] (inclusive, clamped to range).
  void AddRange(std::int64_t lo, std::int64_t hi, std::int64_t delta) {
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::min<std::int64_t>(hi,
                                static_cast<std::int64_t>(values_.size()) - 1);
    for (std::int64_t i = lo; i <= hi; ++i) {
      values_[static_cast<std::size_t>(i)] += delta;
    }
  }

  std::int64_t GlobalMax() const {
    return values_.empty() ? 0 : values_[ArgGlobalMax()];
  }

  // Smallest index attaining GlobalMax.
  std::size_t ArgGlobalMax() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < values_.size(); ++i) {
      if (values_[i] > values_[best]) best = i;
    }
    return best;
  }

 private:
  std::vector<std::int64_t> values_;
};

// The naive engine: interval votes over delay buckets, then the max.
// call_times must be sorted ascending.
std::int64_t ScoreTypeNaive(std::size_t buckets,
                            const std::vector<TimeUs>& call_times,
                            const std::vector<TimeUs>& jgr_add_times,
                            const ScoringParams& params, ScoringCost* cost) {
  NaiveRangeMax delay_votes(buckets);
  bool any = false;
  for (TimeUs ipc_time : call_times) {
    // JGR adds that could have been caused by this call: those within
    // [ipc_time, ipc_time + max_delay].
    auto lo = std::lower_bound(jgr_add_times.begin(), jgr_add_times.end(),
                               ipc_time);
    auto hi = std::upper_bound(lo, jgr_add_times.end(),
                               ipc_time + params.max_delay_us);
    for (auto it = lo; it != hi; ++it) {
      const DurationUs min_delay = *it - ipc_time;
      const DurationUs max_delay = min_delay + params.delta_us;
      delay_votes.AddRange(
          static_cast<std::int64_t>(min_delay / params.bucket_us),
          static_cast<std::int64_t>(max_delay / params.bucket_us), 1);
      any = true;
      if (cost != nullptr) {
        ++cost->pairs;
        ++cost->range_ops;
      }
    }
  }
  if (!any) return 0;
  // Peak peeling (§VI, multiple attack paths): take the best-supported delay
  // hypothesis, suppress its ±Δ neighbourhood, and repeat up to max_paths
  // times. With max_paths == 1 this is exactly Algorithm 1.
  constexpr std::int64_t kSuppress = std::int64_t{1} << 40;
  const std::int64_t peak_halo =
      static_cast<std::int64_t>(params.delta_us / params.bucket_us) + 1;
  std::int64_t total = 0;
  const int paths = std::max(1, params.max_paths);
  for (int path = 0; path < paths; ++path) {
    const std::int64_t peak = delay_votes.GlobalMax();
    if (peak <= 0) break;
    total += peak;
    if (path + 1 < paths) {
      const auto arg = static_cast<std::int64_t>(delay_votes.ArgGlobalMax());
      delay_votes.AddRange(arg - peak_halo, arg + peak_halo, -kSuppress);
    }
  }
  return total;
}

// The batched engine. Semantically identical to ScoreTypeNaive, but
// restructured for flat column passes:
//
//   1. Pairing: call_times and jgr_add_times are both sorted, so the
//      causal window [ipc_time, ipc_time + max_delay] is tracked with two
//      monotone cursors — O(calls + adds + pairs) total instead of a binary
//      search per call.
//   2. Voting: each pair votes +1 on its delay-bucket interval via a
//      difference array (two additions), replacing an O(interval) walk.
//   3. Peak: one prefix scan materializes the per-bucket vote counts; a
//      linear max with strict `>` keeps the *first* maximal bucket, exactly
//      as NaiveRangeMax::ArgGlobalMax does.
//   4. Peeling (max_paths > 1): suppression subtracts the same kSuppress
//      constant over the same clamped halo the naive engine applies, then
//      rescans — identical path sums, identical work counters.
std::int64_t ScoreTypeBatched(std::vector<std::int64_t>& votes,
                              std::size_t buckets,
                              const std::vector<TimeUs>& call_times,
                              const std::vector<TimeUs>& jgr_add_times,
                              const ScoringParams& params, ScoringCost* cost) {
  votes.assign(buckets + 1, 0);
  const std::size_t adds = jgr_add_times.size();
  const FastDiv bucket_div(static_cast<std::uint64_t>(params.bucket_us));
  const std::uint64_t delta = static_cast<std::uint64_t>(params.delta_us);
  std::int64_t pairs = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (TimeUs ipc_time : call_times) {
    while (lo < adds && jgr_add_times[lo] < ipc_time) ++lo;
    if (hi < lo) hi = lo;
    const TimeUs limit = ipc_time + params.max_delay_us;
    while (hi < adds && jgr_add_times[hi] <= limit) ++hi;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t min_delay =
          static_cast<std::uint64_t>(jgr_add_times[i] - ipc_time);
      const std::size_t b_lo =
          static_cast<std::size_t>(bucket_div.Div(min_delay));
      const std::size_t b_hi =
          static_cast<std::size_t>(bucket_div.Div(min_delay + delta));
      ++votes[b_lo];
      --votes[b_hi + 1];
    }
    pairs += static_cast<std::int64_t>(hi - lo);
  }
  if (pairs == 0) return 0;
  if (cost != nullptr) {
    cost->pairs += pairs;
    cost->range_ops += pairs;
  }
  std::int64_t running = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    running += votes[b];
    votes[b] = running;
  }
  constexpr std::int64_t kSuppress = std::int64_t{1} << 40;
  const std::int64_t peak_halo =
      static_cast<std::int64_t>(params.delta_us / params.bucket_us) + 1;
  std::int64_t total = 0;
  const int paths = std::max(1, params.max_paths);
  for (int path = 0; path < paths; ++path) {
    std::int64_t peak = votes[0];
    std::size_t arg = 0;
    for (std::size_t b = 1; b < buckets; ++b) {
      if (votes[b] > peak) {
        peak = votes[b];
        arg = b;
      }
    }
    if (peak <= 0) break;
    total += peak;
    if (path + 1 < paths) {
      std::int64_t s = static_cast<std::int64_t>(arg) - peak_halo;
      std::int64_t e = static_cast<std::int64_t>(arg) + peak_halo;
      if (s < 0) s = 0;
      if (e > static_cast<std::int64_t>(buckets) - 1) {
        e = static_cast<std::int64_t>(buckets) - 1;
      }
      for (std::int64_t b = s; b <= e; ++b) votes[b] -= kSuppress;
    }
  }
  return total;
}

// IPCCallOfType: groups the app's calls by interface type and sums
// `score_type(call_times)` over the types, each type's call times sorted
// ascending. The one grouping loop both scorers share.
template <typename ScoreType>
std::int64_t SumOverTypes(const std::vector<IpcEvent>& app_calls,
                          const std::vector<TimeUs>& jgr_add_times,
                          ScoringCost* cost, ScoringWorkspace& ws,
                          ScoreType&& score_type) {
  assert(std::is_sorted(jgr_add_times.begin(), jgr_add_times.end()));
  if (cost != nullptr) {
    cost->ipc_events += static_cast<std::int64_t>(app_calls.size());
    cost->jgr_events += static_cast<std::int64_t>(jgr_add_times.size());
  }
  // Sorting one reused buffer by (type, time) replaces the seed's per-call
  // map<string, vector> insertion; each run of equal types is one type's
  // call list, already time-sorted.
  std::vector<IpcEvent>& events = ws.grouping_buffer();
  events.assign(app_calls.begin(), app_calls.end());
  const auto by_type_then_time = [](const IpcEvent& a, const IpcEvent& b) {
    return a.type != b.type ? a.type < b.type : a.t < b.t;
  };
  // Single-type recordings arrive already time-ordered (the IPC log is in
  // transaction order), so the common case is one linear is_sorted pass.
  if (!std::is_sorted(events.begin(), events.end(), by_type_then_time)) {
    std::sort(events.begin(), events.end(), by_type_then_time);
  }
  std::int64_t score = 0;
  std::size_t run_start = 0;
  while (run_start < events.size()) {
    std::size_t run_end = run_start + 1;
    while (run_end < events.size() &&
           events[run_end].type == events[run_start].type) {
      ++run_end;
    }
    std::vector<TimeUs>& times = ws.times_buffer();
    times.clear();
    times.reserve(run_end - run_start);
    for (std::size_t i = run_start; i < run_end; ++i) {
      times.push_back(events[i].t);
    }
    score += score_type(times);
    run_start = run_end;
  }
  return score;
}

}  // namespace

std::int64_t JgreScoreForApp(const std::vector<IpcEvent>& app_calls,
                             const std::vector<TimeUs>& jgr_add_times,
                             const ScoringParams& params, ScoringCost* cost,
                             ScoringWorkspace* workspace) {
  ScoringWorkspace local_workspace;
  ScoringWorkspace& ws =
      workspace != nullptr ? *workspace : local_workspace;
  const std::size_t buckets = BucketCount(params);
  return SumOverTypes(app_calls, jgr_add_times, cost, ws,
                      [&](const std::vector<TimeUs>& times) {
                        return ScoreTypeBatched(ws.votes_buffer(), buckets,
                                                times, jgr_add_times, params,
                                                cost);
                      });
}

std::int64_t NaiveJgreScoreForApp(const std::vector<IpcEvent>& app_calls,
                                  const std::vector<TimeUs>& jgr_add_times,
                                  const ScoringParams& params,
                                  ScoringCost* cost) {
  ScoringWorkspace ws;
  const std::size_t buckets = BucketCount(params);
  return SumOverTypes(app_calls, jgr_add_times, cost, ws,
                      [&](const std::vector<TimeUs>& times) {
                        return ScoreTypeNaive(buckets, times, jgr_add_times,
                                              params, cost);
                      });
}

}  // namespace jgre::defense
