// Oracle — did this execution exhaust (or move measurably toward exhausting)
// a victim's bounded resource?
//
// Three signals, all measured across a forced GC so transient references
// never count:
//   * runtime abort / soft reboot — the detonation itself;
//   * retained JGR growth — judged against the same exploitable/bounded
//     rates the directed verifier uses (model/growth_thresholds.h);
//   * fd-table growth — the §VI resource the JGR-centric pipeline is
//     structurally blind to.
//
// Two stages with different bars:
//   Screen()  — permissive, for mixed sequences: a vulnerable interface's
//               growth is diluted by the benign calls around it, so the
//               screen triggers on an absolute retained floor or the bounded
//               rate. Screen hits are *suspects*, not findings.
//   Confirm() — strict, for a minimized homogeneous probe of one interface:
//               the shared exploitable rate. Only Confirm creates findings,
//               which is what keeps the false-positive count at zero.
#ifndef JGRE_FUZZ_ORACLE_H_
#define JGRE_FUZZ_ORACLE_H_

#include <cstdint>

#include "model/growth_thresholds.h"

namespace jgre::fuzz {

// What one execution did to its victim, measured GC-to-GC.
struct Observation {
  int calls = 0;
  std::int64_t jgr_before = 0;  // post-GC, before the sequence
  std::int64_t jgr_after = 0;   // post-GC, after the sequence
  std::int64_t fd_before = 0;
  std::int64_t fd_after = 0;
  bool victim_aborted = false;
};

enum class ExhaustionKind { kNone, kJgr, kFd, kAbort };

const char* ExhaustionKindName(ExhaustionKind kind);

struct OracleVerdict {
  ExhaustionKind kind = ExhaustionKind::kNone;
  double jgr_growth_per_call = 0.0;
  double fd_growth_per_call = 0.0;

  bool suspicious() const { return kind != ExhaustionKind::kNone; }
};

struct OracleOptions {
  // Shared with dynamic::VerifyOptions — the single source of truth for
  // what growth rate counts as exploitable vs bounded.
  model::GrowthThresholds growth;
  // Screen: absolute retained-entry floor that flags a sequence even when
  // per-call growth is diluted below the rate cutoffs.
  std::int64_t retained_jgr_floor = 8;
  std::int64_t retained_fd_floor = 4;
};

// The per-stage bar the shared judge applies: a growth-rate cutoff per
// resource plus optional absolute retained-entry floors (< 0 disables the
// floor — Confirm judges rate only). Screen and Confirm are the same code
// path with different bars, so the growth thresholds cannot drift between
// the stages again.
struct OracleBar {
  double jgr_rate = 0.0;
  double fd_rate = 0.0;
  std::int64_t jgr_floor = -1;
  std::int64_t fd_floor = -1;
};

class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(OracleOptions options) : options_(options) {}

  OracleVerdict Screen(const Observation& obs) const {
    return Judge(obs, ScreenBar());
  }
  OracleVerdict Confirm(const Observation& obs) const {
    return Judge(obs, ConfirmBar());
  }

 private:
  // The one judging code path, at either stage's bar.
  OracleVerdict Judge(const Observation& obs, const OracleBar& bar) const;
  OracleBar ScreenBar() const {
    return {options_.growth.bounded_jgr_per_call,
            options_.growth.exploitable_fd_per_call,
            options_.retained_jgr_floor, options_.retained_fd_floor};
  }
  OracleBar ConfirmBar() const {
    return {options_.growth.exploitable_jgr_per_call,
            options_.growth.exploitable_fd_per_call, -1, -1};
  }

  OracleOptions options_;
};

}  // namespace jgre::fuzz

#endif  // JGRE_FUZZ_ORACLE_H_
