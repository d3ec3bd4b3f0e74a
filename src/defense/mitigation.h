// MitigationPolicy / MitigationStack — modern JGRE defenses, pluggable at
// the binder driver's admission seam.
//
// The paper's §V defender is reactive: it lets the table grow, correlates
// delays, and kills the top scorers. The mitigations here are the *proactive*
// class follow-up work proposes ("JNI Global References Are Still
// Vulnerable", arXiv 2405.00526): deny or damp resource acquisition before
// the table is in danger. Each policy sees every admitted top-level IPC into
// the victim from an app UID and votes admit/deny; after the call it is told
// the victim's live-reference delta so charge-based policies can attribute
// growth. Policies compose with each other and with the kill-based
// JgreDefender — the arms matrix runs them side by side.
//
// All three policies are deterministic functions of the (virtual-time)
// event sequence, so matrix cells stay byte-identical across --jobs.
//
// A device's defense point is one DefenseConfig: the §V defender at its
// thresholds, a MitigationSettings stack, both, or neither.
// sim::DeviceSpec::WithDefense takes it, and sim::DeviceSim installs the
// stack through InstallMitigations and owns it.
#ifndef JGRE_DEFENSE_MITIGATION_H_
#define JGRE_DEFENSE_MITIGATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "core/android_system.h"

namespace jgre::defense {

// One admission decision's worth of context. `victim_live_refs` is the
// victim table occupancy (strong + weak) sampled before the call; Settle()
// receives the same request plus the across-call delta.
struct MitigationRequest {
  Pid caller{};
  Uid caller_uid{};
  Pid victim{};
  std::uint32_t descriptor_id = 0;
  std::uint32_t code = 0;
  TimeUs now_us = 0;
  std::size_t victim_live_refs = 0;
  SimClock* clock = nullptr;  // for delay-injecting policies
};

class MitigationPolicy {
 public:
  virtual ~MitigationPolicy() = default;

  // Stable policy id ("per_uid_quota", ...), used in reports and denial
  // attribution.
  virtual std::string_view id() const = 0;

  // Admission vote. Ok admits; LimitExceeded denies (surfaced to the caller
  // as the binder error a patched driver would return). May advance the
  // clock (backoff policies slow the caller down instead of refusing).
  virtual Status Admit(const MitigationRequest& request) = 0;

  // Called after an admitted call completes with the victim's live-ref
  // delta (negative when a GC ran inside the call window).
  virtual void Settle(const MitigationRequest& request,
                      std::int64_t jgr_delta) {
    (void)request;
    (void)jgr_delta;
  }
};

// Hard per-UID charge cap. Every admitted call's positive live-ref delta is
// charged to the calling UID; when the victim's table shrinks (GC reclaim,
// defender recovery) all charges decay proportionally — the model of "the
// kernel knows who asked for what share of the table". At the cap, calls
// from that UID are denied outright.
class PerUidQuota : public MitigationPolicy {
 public:
  struct Config {
    // Max outstanding charged references per app UID. The default sits well
    // above any benign workload (tens of refs) and well below table caps.
    std::int64_t max_charged_refs = 1'500;
  };

  PerUidQuota() = default;
  explicit PerUidQuota(Config config) : config_(config) {}

  std::string_view id() const override { return "per_uid_quota"; }
  Status Admit(const MitigationRequest& request) override;
  void Settle(const MitigationRequest& request,
              std::int64_t jgr_delta) override;

  std::int64_t ChargedTo(Uid uid) const;

 private:
  void DecayTo(std::size_t victim_live_refs);

  Config config_;
  std::map<std::uint32_t, std::int64_t> charges_;  // uid -> charged refs
  std::int64_t total_charged_ = 0;
  std::size_t last_victim_live_ = 0;
  bool primed_ = false;
};

// Exponential admission delay once the victim table passes a watermark.
// Never denies: it taxes growth with time, which both slows an attacker's
// rate (pushing exhaustion past the horizon) and hands the periodic GC and
// the kill-based defender time to act. Benign collateral is latency, not
// failures.
class TableGrowthBackoff : public MitigationPolicy {
 public:
  struct Config {
    std::size_t watermark = 6'000;       // refs before any delay
    DurationUs base_delay_us = 200;      // first step's delay
    std::size_t doubling_step = 2'048;   // refs per delay doubling
    DurationUs max_delay_us = 100'000;   // delay ceiling per call
  };

  TableGrowthBackoff() = default;
  explicit TableGrowthBackoff(Config config) : config_(config) {}

  std::string_view id() const override { return "table_growth_backoff"; }
  Status Admit(const MitigationRequest& request) override;

  std::int64_t delayed_calls() const { return delayed_calls_; }
  DurationUs total_delay_us() const { return total_delay_us_; }

 private:
  Config config_;
  std::int64_t delayed_calls_ = 0;
  DurationUs total_delay_us_ = 0;
};

// Token bucket per interned (descriptor, code): callers collectively get
// `tokens_per_sec` calls into each interface method, with `burst` headroom.
// Keyed on the interface rather than the caller, it throttles UID-rotation
// collusion that per-UID accounting misses — at the price of benign denials
// on the contended interface (the collateral column the matrix measures).
class PerInterfaceRateLimit : public MitigationPolicy {
 public:
  struct Config {
    double tokens_per_sec = 400.0;
    double burst = 800.0;
  };

  PerInterfaceRateLimit() = default;
  explicit PerInterfaceRateLimit(Config config) : config_(config) {}

  std::string_view id() const override { return "per_interface_rate_limit"; }
  Status Admit(const MitigationRequest& request) override;

 private:
  struct Bucket {
    double tokens = 0;
    TimeUs last_us = 0;
    bool primed = false;
  };

  Config config_;
  std::map<std::uint64_t, Bucket> buckets_;  // (descriptor_id<<32)|code
};

// Owns a set of policies and installs them on a system's binder driver as
// the transaction gate + observer pair. Scope: top-level calls from app UIDs
// (>= kFirstAppUid) into the victim process; system-internal traffic is
// never gated. Tracks denial attribution per UID and per policy so the
// matrix can split attacker denials from benign collateral. Uninstalls its
// hooks on destruction.
class MitigationStack {
 public:
  struct Config {
    Pid victim{};
    Uid min_gated_uid = kFirstAppUid;
  };

  MitigationStack(core::AndroidSystem* system, Config config);
  ~MitigationStack();

  MitigationStack(const MitigationStack&) = delete;
  MitigationStack& operator=(const MitigationStack&) = delete;

  void Add(std::unique_ptr<MitigationPolicy> policy);

  // Installs the driver hooks. Call after Add()ing the policies; a stack
  // with no policies installs nothing.
  void Install();

  std::size_t policy_count() const { return policies_.size(); }
  std::int64_t total_denied() const { return total_denied_; }
  std::int64_t DeniedForUid(Uid uid) const;
  const std::map<std::uint32_t, std::int64_t>& denied_by_uid() const {
    return denied_by_uid_;
  }
  const std::map<std::string, std::int64_t, std::less<>>& denied_by_policy()
      const {
    return denied_by_policy_;
  }

 private:
  std::size_t VictimLiveRefs() const;

  core::AndroidSystem* system_;
  Config config_;
  std::vector<std::unique_ptr<MitigationPolicy>> policies_;
  bool installed_ = false;
  bool in_flight_ = false;
  MitigationRequest pending_{};
  std::map<std::uint32_t, std::int64_t> denied_by_uid_;
  std::map<std::string, std::int64_t, std::less<>> denied_by_policy_;
  std::int64_t total_denied_ = 0;
};

// Which modern mitigations a defense point stacks, with their tunings.
// backoff.watermark == 0 means "half the device's JGR cap", resolved at
// install — an absolute watermark would be meaningless across caps.
struct MitigationSettings {
  bool per_uid_quota = false;
  bool table_growth_backoff = false;
  bool per_interface_rate_limit = false;
  PerUidQuota::Config quota;
  TableGrowthBackoff::Config backoff{0, 200, 256, 100'000};
  PerInterfaceRateLimit::Config rate_limit;

  bool any() const {
    return per_uid_quota || table_growth_backoff || per_interface_rate_limit;
  }
};

// One defense point: the §V kill-based defender at (alarm, report), a
// mitigation stack, both, or neither.
struct DefenseConfig {
  std::string name;  // axis label ("none", "defender", "defender+quota", ...)
  bool defender = false;
  std::size_t alarm_threshold = 4'000;
  std::size_t report_threshold = 12'000;
  MitigationSettings mitigations{};
};

// Builds and installs the stack `settings` asks for in front of `system`'s
// system_server; null when it asks for none.
std::unique_ptr<MitigationStack> InstallMitigations(
    core::AndroidSystem& system, const MitigationSettings& settings);

}  // namespace jgre::defense

#endif  // JGRE_DEFENSE_MITIGATION_H_
