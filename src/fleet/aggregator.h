// FleetAggregator — streaming census statistics over per-device outcomes.
//
// Each device run reduces to one DeviceOutcome (folded from its EventBus by
// a DeviceProbe plus what RunDeviceScenario reads off the device's
// attacker, mitigation stack and defender). The aggregator folds outcomes
// into per-scenario-class counters and mergeable QuantileSketches;
// MergeFrom() combines aggregators bin-wise, so shard aggregation commutes —
// the census JSON is identical no matter how the fleet was partitioned
// across workers.
#ifndef JGRE_FLEET_AGGREGATOR_H_
#define JGRE_FLEET_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "common/ring_buffer.h"
#include "common/types.h"
#include "detect/detection.h"
#include "detect/hunt.h"
#include "fleet/sketch.h"
#include "harness/json.h"
#include "obs/event.h"
#include "obs/event_bus.h"

namespace jgre::fleet {

// The reduced result of one device simulation.
struct DeviceOutcome {
  std::size_t index = 0;
  std::string scenario_class;
  // JGR-table exhaustion detonated (system_server soft-rebooted).
  bool exhausted = false;
  DurationUs time_to_exhaustion_us = 0;  // meaningful when exhausted
  bool exhausted_within_horizon = false;
  bool incident = false;  // the defender raised an incident report
  bool attacker_killed = false;
  std::int64_t ipc_calls = 0;
  std::int64_t jgr_adds = 0;
  std::uint64_t peak_jgr = 0;  // system_server table high-water mark
  // Weak-global table high-water mark. Non-zero only when the victim runtime
  // emits weak events (a weakref_churn attacker opts in).
  std::uint64_t peak_weak_jgr = 0;
  // The attacker's call tally, stopped_by_denial included (zeros without
  // an attacker).
  attack::StrategyStats attacker;
  // Collateral: calls denied by the device's mitigation stack split by
  // issuer (zero without a stack) and by policy, and benign apps killed by
  // the defender's recovery pass.
  std::int64_t denied_attacker_calls = 0;
  std::int64_t denied_benign_calls = 0;
  std::map<std::string, std::int64_t> denied_by_policy;
  std::int64_t benign_kills = 0;
  DurationUs virtual_duration_us = 0;
  // The device's hunt pass: per-hunt detection counts plus the detections
  // themselves (with provenance), in hunt registration order.
  std::map<std::string, std::uint64_t> hunt_hits;
  std::vector<detect::Detection> detections;
};

// An EventSink that reduces a device's kJgr/kIpc events as they are
// emitted. It is subscribed to `bus` from construction until Detach() or its
// destruction, to the functional categories only, so the census numbers are
// identical under -DJGRE_OBS_TRACING=OFF.
class DeviceProbe : public obs::EventSink {
 public:
  // Newest victim-kJgr/kIpc events retained as the trace window the
  // detection hunts read. Bounds per-device memory; the JgrActivity
  // counters keep accumulating over the full stream, so rates and net
  // growth (the verdicts) never depend on the window size, only the
  // provenance slices do.
  static constexpr std::size_t kHuntWindowCapacity = 2048;

  // `victim_pid` scopes the JGR statistics to the victim's table (the
  // pre-reboot system_server); IPC calls are counted fleet-wide.
  DeviceProbe(obs::EventBus& bus, std::int32_t victim_pid);
  ~DeviceProbe() override { Detach(); }
  DeviceProbe(const DeviceProbe&) = delete;
  DeviceProbe& operator=(const DeviceProbe&) = delete;

  // Leaves the bus, so later events (a settling GC, teardown) no longer
  // reach the counters below. Idempotent.
  void Detach() { bus_.Unsubscribe(this); }

  void OnEvent(const obs::TraceEvent& event) override;

  std::int32_t victim_pid() const { return victim_pid_; }
  std::int64_t ipc_calls() const { return ipc_calls_; }
  std::int64_t jgr_adds() const { return activity_.adds; }
  std::uint64_t peak_jgr() const { return activity_.peak_count; }
  // Weak-table high-water mark; only advances when the victim runtime opts
  // into weak-event emission (weak events ride the same kJgr category).
  std::uint64_t peak_weak_jgr() const { return peak_weak_jgr_; }
  const detect::JgrActivity& jgr_activity() const { return activity_; }

  // The retained window in stream order.
  std::vector<obs::TraceEvent> Window() const;

 private:
  obs::EventBus& bus_;
  std::int32_t victim_pid_;
  std::int64_t ipc_calls_ = 0;
  std::uint64_t peak_weak_jgr_ = 0;
  detect::JgrActivity activity_;
  RingBuffer<obs::TraceEvent> window_{kHuntWindowCapacity};
};

class FleetAggregator {
 public:
  void Absorb(const DeviceOutcome& outcome);
  // Bin-wise merge; commutative and associative with Absorb order.
  void MergeFrom(const FleetAggregator& other);

  std::size_t devices() const { return devices_; }

  // The census document body: overall + per-scenario-class blocks with
  // incident rates, soft-reboot-within-T fractions, and p50/p90/p99
  // time-to-exhaustion / peak-JGR quantiles. Pure function of the absorbed
  // outcomes (no wall-clock, no worker counts).
  harness::Json ToJson() const;

 private:
  struct ClassStats {
    std::uint64_t devices = 0;
    std::uint64_t incidents = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t exhausted_within_horizon = 0;
    std::uint64_t attacker_kills = 0;
    std::int64_t ipc_calls = 0;
    std::int64_t jgr_adds = 0;
    std::int64_t denied_attacker_calls = 0;
    std::int64_t denied_benign_calls = 0;
    std::int64_t benign_kills = 0;
    std::uint64_t denial_stops = 0;  // devices whose attack denied out
    QuantileSketch tte_us;    // time-to-exhaustion of exhausted devices
    QuantileSketch peak_jgr;  // high-water mark of every device
    // Per-hunt detection counts (additive; ordered for stable JSON).
    std::map<std::string, std::uint64_t> hunt_hits;

    // Folds `other` in: counters add, sketches merge bin-wise.
    void Add(const ClassStats& other);
  };

  static harness::Json StatsJson(const ClassStats& stats);

  std::size_t devices_ = 0;
  std::map<std::string, ClassStats> classes_;  // ordered: stable JSON
};

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_AGGREGATOR_H_
