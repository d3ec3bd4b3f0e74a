// AttackStrategy — the one attacker interface.
//
// experiment::Drive steps exactly one AttackStrategy per scenario: the
// undefended floods of Figs 3, 5 and 6 and Table IV, the Fig 8 defended
// attack, every fleet census device, and every defense-matrix cell; benches
// and tests that interleave several attackers step them by hand. Each
// strategy owns its apps and decides per step what to issue next,
// reacting to what the system shows it (victim table occupancy, denials,
// process deaths):
//
//   flood                  — the paper's Code-Snippet 2 baseline, fresh
//                            binder per call, back-to-back. With
//                            think_time_us it is the census's slow drip
//                            (§VI): idle between calls, letting periodic GC
//                            run and rate-based monitors cool down. A
//                            device's own attacker (sim::DeviceSpec::
//                            WithAttack) is this strategy.
//   sub_alarm_drip         — stays below the §V monitor's assumed alarm
//                            threshold minus a margin and paces its adds/sec
//                            under rate-based detectors: parks just beneath
//                            the radar holding table capacity hostage.
//   uid_rotation_colluders — K cooperating apps (distinct UIDs) rotate the
//                            issuing identity every burst, defeating per-UID
//                            accounting; collectively they out-budget any
//                            single-UID quota.
//   death_recipient_churn  — registers and unregisters death-recipient
//                            callbacks in a sliding window: huge add/remove
//                            throughput with ~zero net growth between GCs,
//                            but transient growth that outruns the GC period
//                            at small table caps.
//   weakref_churn          — watches fresh binders through WeakWatchService
//                            and "forgets" to unwatch a fraction: the victim
//                            strong table stays quiescent while the weak
//                            table — which no monitor thresholds — fills.
//
// The four adaptive strategies model the follow-up attacks of He et al.,
// "JNI Global References Are Still Vulnerable" (arXiv 2405.00526).
// Strategies draw randomness only from their plan seed and time only from
// the simulated clock, so runs stay byte-identical across --jobs.
#ifndef JGRE_ATTACK_STRATEGY_H_
#define JGRE_ATTACK_STRATEGY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/vuln_registry.h"
#include "common/status.h"
#include "common/types.h"
#include "core/android_system.h"

namespace jgre::attack {

// Tuning knobs shared by all strategies; each reads the subset it needs.
struct AttackPlan {
  // Which strategy MakeStrategy builds. "" means no attacker: a device
  // given such a plan (sim::DeviceSpec::WithAttack) runs benign apps only.
  std::string name = "flood";
  // System-server vulnerability the call-issuing strategies drive: a
  // registry id, kChurnVulnId, or 0 for the first permissionless interface
  // (stable registry order).
  int vuln_id = 0;
  std::uint64_t seed = 42;
  int max_calls = 40'000;
  // Give up after this many consecutive mitigation denials (a real attacker
  // stops burning a detectable call stream that no longer acquires anything).
  // 0 never gives up, like the paper's attacker.
  int stop_after_consecutive_denials = 64;
  // flood: idle between calls (the census's drip profile).
  DurationUs think_time_us = 0;
  // uid_rotation_colluders.
  int colluders = 6;
  int rotation_burst = 64;  // calls per colluder before rotating
  // sub_alarm_drip: the attacker's model of the monitor's operating point.
  std::size_t assumed_alarm_threshold = 4'000;
  std::size_t alarm_margin = 256;
  double target_adds_per_sec = 384.0;  // stays under rate-based hunts
  // churn strategies.
  DurationUs churn_think_us = 500;
  int churn_window = 8;        // in-flight registrations before recycling
  double leak_fraction = 0.5;  // weakref_churn: share never unwatched
};

struct StrategyStats {
  int calls_issued = 0;
  int calls_ok = 0;
  int calls_denied = 0;  // kLimitExceeded (mitigation refusals)
  int calls_failed = 0;  // every other non-ok status
  int consecutive_denied = 0;
  bool stopped_by_denial = false;
};

class AttackStrategy {
 public:
  virtual ~AttackStrategy() = default;

  virtual std::string_view id() const = 0;

  // Installs the strategy's apps/services on a device. Must be called once
  // before Step; failure means the scenario cannot run.
  virtual Status Setup(core::AndroidSystem& system) = 0;

  // Issues the next move: usually one IPC call plus pacing, advancing the
  // virtual clock. Returns false when the strategy is finished — without a
  // move if every issuer is dead, the call budget is spent, or (flood) an
  // app-hosted victim has aborted, or after this move if it spent the
  // denial budget.
  virtual bool Step(core::AndroidSystem& system) = 0;

  const StrategyStats& stats() const { return stats_; }
  const AttackPlan& plan() const { return plan_; }

  // Identities the drive loop and the matrix use to tell attacker kills and
  // denials from benign collateral. Valid after Setup.
  virtual std::vector<Uid> attacker_uids() const = 0;
  virtual std::vector<std::string> attacker_packages() const = 0;

 protected:
  explicit AttackStrategy(AttackPlan plan) : plan_(std::move(plan)) {}

  // Folds one call status into stats_. Returns false when the consecutive-
  // denial budget is spent (the strategy should stop).
  bool Record(const Status& status);

  AttackPlan plan_;
  StrategyStats stats_;
};

// The package MakeStrategy's flood installs its app as. It is also
// sim::DeviceSpec::attack_package(), so a device's flood has one name
// whether it was given a plan or an explicit target.
inline constexpr std::string_view kFloodPackage = "com.evil.app";

// The registry: strategy names MakeStrategy accepts, in matrix axis order.
const std::vector<std::string>& KnownStrategies();

// Builds the named strategy from `plan.name`; null for an unknown name.
// Call-issuing strategies resolve `plan.vuln_id` at Setup, which fails if
// it names no system-server vulnerability.
std::unique_ptr<AttackStrategy> MakeStrategy(const AttackPlan& plan);

// A flood of `vuln` (which need not be in the registry) from an app
// installed as `package`: the attacker sim::DeviceSim builds for
// DeviceSpec::WithAttack(vuln).
std::unique_ptr<AttackStrategy> MakeFlood(const AttackPlan& plan,
                                          const VulnSpec& vuln,
                                          std::string package);

}  // namespace jgre::attack

#endif  // JGRE_ATTACK_STRATEGY_H_
