// FleetAggregator — streaming census statistics over per-device outcomes.
//
// Each device run reduces to one DeviceOutcome (drained from its EventBus by
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

// An EventSink that reduces a device's kJgr/kIpc batches as they drain.
// It is subscribed to `bus` (buffered) from construction until Detach() or
// its destruction, to the functional categories only, so the census numbers
// are identical under -DJGRE_OBS_TRACING=OFF.
class DeviceProbe : public obs::EventSink {
 public:
  // `victim_pid` scopes the JGR statistics to the victim's table (the
  // pre-reboot system_server); IPC calls are counted fleet-wide. A non-zero
  // `ring_capacity` additionally retains the newest victim-kJgr and kIpc
  // events as the trace window the detection hunts read — the full-stream
  // JgrActivity counters keep accumulating regardless, so rates and net
  // growth never depend on the ring size.
  DeviceProbe(obs::EventBus& bus, std::int32_t victim_pid,
              std::size_t ring_capacity = 0);
  ~DeviceProbe() override { Detach(); }
  DeviceProbe(const DeviceProbe&) = delete;
  DeviceProbe& operator=(const DeviceProbe&) = delete;

  // Leaves the bus, draining the staged events first: the read barrier
  // before the counters below are read. Idempotent.
  void Detach() { bus_.Unsubscribe(this); }

  void OnEvent(const obs::TraceEvent& event) override;
  void OnBatch(const obs::TraceEvent* events, std::size_t count) override;

  std::int32_t victim_pid() const { return victim_pid_; }
  std::int64_t ipc_calls() const { return ipc_calls_; }
  std::int64_t jgr_adds() const { return jgr_adds_; }
  std::uint64_t peak_jgr() const { return peak_jgr_; }
  // Weak-table high-water mark; only advances when the victim runtime opts
  // into weak-event emission (weak events ride the same kJgr category).
  std::uint64_t peak_weak_jgr() const { return peak_weak_jgr_; }
  const detect::JgrActivity& jgr_activity() const { return activity_; }

  // The retained window in stream order (empty when the ring is disabled).
  std::vector<obs::TraceEvent> Window() const;

 private:
  void Retain(const obs::TraceEvent& event);

  obs::EventBus& bus_;
  std::int32_t victim_pid_;
  std::size_t ring_capacity_;
  std::int64_t ipc_calls_ = 0;
  std::int64_t jgr_adds_ = 0;
  std::uint64_t peak_jgr_ = 0;
  std::uint64_t peak_weak_jgr_ = 0;
  detect::JgrActivity activity_;
  bool saw_jgr_ = false;
  std::vector<obs::TraceEvent> ring_;
  std::size_t ring_next_ = 0;  // overwrite cursor once the ring is full
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
