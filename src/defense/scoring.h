// Algorithm 1 — the JGR scoring algorithm (paper §V.A).
//
// Observation 2 says every vulnerable IPC interface exhibits a stable
// per-interface latency between the IPC call and the JGR creation it
// triggers: duration = Delay + Δ with constant Delay and small Δ ≥ 0. The
// defender therefore asks, per app and per IPC type: *is there a single
// delay hypothesis under which many of this app's calls line up with JGR
// creations?* For every (IPC call, JGR add) pair it votes +1 on the delay
// interval [JGRTime − IPCTime, JGRTime − IPCTime + Δ]; the best-supported
// delay bucket's count is the type's suspicious-call count, and the app's
// jgre_score is the sum over its IPC types. A benign app's calls do not
// correlate with the victim's JGR creations, so no single delay accumulates
// support — which is also why an attacker cannot evade by merely calling a
// lot (the counts only grow when calls actually produce JGRs at a consistent
// lag).
//
// JgreScoreForApp walks each IPC type's calls and the JGR adds with two
// monotone cursors and accumulates votes in a flat difference array.
// NaiveJgreScoreForApp is its reference oracle (property tests and the
// ablation bench): an O(interval) vote array over the same type grouping,
// with identical scores and identical work counters. §V.D.2 implements the
// votes on a lazy segment tree instead; the simulator does not
// (EXPERIMENTS.md records why).
#ifndef JGRE_DEFENSE_SCORING_H_
#define JGRE_DEFENSE_SCORING_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace jgre::defense {

struct ScoringParams {
  // Δ: the deviation bound. The paper's single-attacker experiment uses the
  // services' average of 1.8 ms; Fig 9 sweeps {79, 1900, 3583} µs.
  DurationUs delta_us = 1800;
  // Vote bucket granularity over the delay axis.
  DurationUs bucket_us = 100;
  // Maximum plausible Delay (TimeLen): pairs farther apart than this cannot
  // be cause and effect for any interface (the slowest handler finishes well
  // within ~60 ms at the JGR counts where detection runs).
  DurationUs max_delay_us = 60'000;
  // Only the trailing window of the recording is scored. Observation 2 holds
  // *locally*: a vulnerable interface's Delay is stable over seconds but
  // drifts as its retained state grows (Fig 5), so scoring the whole
  // multi-minute recording of a slow attack smears the attacker's votes
  // across buckets. 0 = score everything.
  DurationUs analysis_window_us = 6'000'000;
  // §VI "multiple attack paths": an attacker may drive one IPC method down
  // k code paths with k distinct Delays, splitting its votes across k delay
  // clusters. With max_paths > 1 the scorer sums the top-k non-overlapping
  // delay peaks per type ("classifying different IPC calls triggered by the
  // same IPC method according to code execution paths"). 1 = Algorithm 1
  // exactly as printed in the paper.
  int max_paths = 1;
};

// Dense key identifying the "type of IPC interface" Algorithm 1 groups by:
// the interned interface-descriptor id in the high 32 bits, the transaction
// code in the low 32. The seed implementation concatenated
// "<descriptor>#<code>" strings per record and grouped through a
// std::map<std::string, ...>; the integer key removes every allocation and
// string comparison from the defender's hot parse/score loop.
using IpcTypeKey = std::uint64_t;

constexpr IpcTypeKey MakeIpcTypeKey(std::uint32_t descriptor_id,
                                    std::uint32_t code) {
  return (static_cast<IpcTypeKey>(descriptor_id) << 32) |
         static_cast<IpcTypeKey>(code);
}

// One recorded IPC call by one app: when, and which interface type.
struct IpcEvent {
  TimeUs t = 0;
  IpcTypeKey type = 0;
};

struct ScoringCost {
  std::int64_t ipc_events = 0;
  std::int64_t jgr_events = 0;
  std::int64_t pairs = 0;       // (IPC, JGR) pairs examined
  std::int64_t range_ops = 0;   // interval votes applied
};

// Reusable scratch buffers for the scoring pass. The vote column and the
// per-type grouping buffers are allocated once and reused across apps and
// incidents instead of rebuilt per IPC type. Not thread-safe: use one
// workspace per defender/thread.
class ScoringWorkspace {
 public:
  ScoringWorkspace() = default;
  ScoringWorkspace(const ScoringWorkspace&) = delete;
  ScoringWorkspace& operator=(const ScoringWorkspace&) = delete;

  std::vector<IpcEvent>& grouping_buffer() { return grouping_; }
  std::vector<TimeUs>& times_buffer() { return times_; }
  // Flat vote column (difference array, then scanned in place into
  // per-bucket vote counts).
  std::vector<std::int64_t>& votes_buffer() { return votes_; }

 private:
  std::vector<IpcEvent> grouping_;
  std::vector<TimeUs> times_;
  std::vector<std::int64_t> votes_;
};

// Computes one app's jgre_score against the victim's JGR-creation times.
// `jgr_add_times` must be sorted ascending; `app_calls` may be in any order.
// `cost`, when non-null, accumulates work counters (used to charge virtual
// analysis time and by the scoring ablation). `workspace`, when
// non-null, supplies reusable buffers (recommended on the defender's hot
// path); when null a temporary workspace is created per call.
std::int64_t JgreScoreForApp(const std::vector<IpcEvent>& app_calls,
                             const std::vector<TimeUs>& jgr_add_times,
                             const ScoringParams& params,
                             ScoringCost* cost = nullptr,
                             ScoringWorkspace* workspace = nullptr);

// The reference oracle for JgreScoreForApp: the same contract and the same
// result and counters, computed on a naive O(interval) vote array.
std::int64_t NaiveJgreScoreForApp(const std::vector<IpcEvent>& app_calls,
                                  const std::vector<TimeUs>& jgr_add_times,
                                  const ScoringParams& params,
                                  ScoringCost* cost = nullptr);

}  // namespace jgre::defense

#endif  // JGRE_DEFENSE_SCORING_H_
