// JgrMonitorHub — single-subscription fan-in for the defense's JgrMonitors.
//
// The hub holds the defense's one kJgr subscription (every pid) and routes
// each event to its victim's monitor through a dense pid-indexed table — per
// event, one array load, however many runtimes are protected. The bus
// delivers synchronously, so a recording monitor advances virtual time at
// emission and the defender sees the report flag between transactions.
//
// This is the defense's per-victim sharding point: each attached monitor is
// an independent shard with its own counters (adds-since-alarm, recorded
// tape), mutated only by its own pid's events; the defender folds the shard
// flags at its decision point (the between-transactions Check), never on the
// ingest path.
#ifndef JGRE_DEFENSE_MONITOR_HUB_H_
#define JGRE_DEFENSE_MONITOR_HUB_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "defense/jgr_monitor.h"
#include "obs/event.h"
#include "obs/event_bus.h"

namespace jgre::defense {

class JgrMonitorHub : public obs::EventSink {
 public:
  // Subscribes to kJgr (all pids) on `bus`; unsubscribes on destruction.
  explicit JgrMonitorHub(obs::EventBus* bus);
  ~JgrMonitorHub() override;

  JgrMonitorHub(const JgrMonitorHub&) = delete;
  JgrMonitorHub& operator=(const JgrMonitorHub&) = delete;

  // Routes `pid`'s kJgr events to `monitor`, replacing any previous route
  // for that pid. A null monitor clears the route.
  void Attach(Pid pid, JgrMonitor* monitor);

  // Clears every route pointing at `monitor` (a victim's pid changes across
  // a soft reboot, so detaching is by monitor identity, not pid).
  void Detach(const JgrMonitor* monitor);

  JgrMonitor* MonitorForPid(Pid pid) const {
    const std::size_t slot = static_cast<std::size_t>(pid.value() - 1);
    return pid.value() >= 1 && slot < routes_.size() ? routes_[slot] : nullptr;
  }

  void OnEvent(const obs::TraceEvent& event) override {
    if (event.pid < 1) return;
    const std::size_t slot = static_cast<std::size_t>(event.pid - 1);
    if (slot < routes_.size() && routes_[slot] != nullptr) {
      routes_[slot]->OnEvent(event);
    }
  }

 private:
  obs::EventBus* bus_;
  std::vector<JgrMonitor*> routes_;  // slot = pid - 1
};

}  // namespace jgre::defense

#endif  // JGRE_DEFENSE_MONITOR_HUB_H_
