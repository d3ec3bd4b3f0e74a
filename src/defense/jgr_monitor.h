// JgrMonitor — the defense's extended Android Runtime (paper §V.B phase 1).
//
// Subscribed (via the JgrMonitorHub) for a victim runtime's kJgr events
// (system_server or a prebuilt app). Below the alarm threshold it is
// completely passive (zero overhead). Past the alarm threshold (4,000) it
// timestamps every JGR add/remove, charging ~1 µs per recorded operation —
// the overhead §V.D.2 measures. When the number of *new* entries recorded
// since the alarm exceeds the report threshold (12,000) it flags the victim
// as under attack; the JgreDefender picks the flag up between transactions.
//
// The recorded tape is stored as struct-of-arrays columns (timestamp,
// add/remove flag, count-after) so the steady-state record path is three
// flat column pushes, and AddTimes — the scorer's input — is a filtered copy
// of the timestamp column (already monotone: it records a strictly
// advancing clock).
#ifndef JGRE_DEFENSE_JGR_MONITOR_H_
#define JGRE_DEFENSE_JGR_MONITOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "obs/event.h"
#include "obs/event_bus.h"

namespace jgre::defense {

// The monitor consumes the victim's JGR activity as a bus EventSink, routed
// to by a JgrMonitorHub (one kJgr subscription, dense pid-indexed dispatch).
class JgrMonitor final : public obs::EventSink {
 public:
  struct Config {
    std::size_t alarm_threshold = 4000;
    std::size_t report_threshold = 12000;  // new entries since the alarm
    DurationUs record_cost_us = 1;         // §V.D.2: ~1 µs per recorded op
  };

  // Materialized view of one recorded tape entry (storage is columnar).
  struct JgrEvent {
    TimeUs t = 0;
    bool is_add = false;
    std::size_t count_after = 0;
  };

  JgrMonitor(SimClock* clock, std::string victim_name, Config config);

  // obs::EventSink — the bus delivers the victim's kJgr events here and
  // dispatches to the add/remove recording paths below.
  void OnEvent(const obs::TraceEvent& event) override;

  void OnJgrAdd(TimeUs now_us, std::size_t count_after, ObjectId obj);
  void OnJgrRemove(TimeUs now_us, std::size_t count_after, ObjectId obj);

  // Where the monitor publishes its own kDefense events (alarm/report).
  // Optional: an unset source keeps the monitor silent on the bus.
  void set_source(obs::Source source) { source_ = source; }

  bool recording() const { return recording_; }
  bool reported() const { return reported_; }
  TimeUs alarm_at() const { return alarm_at_; }
  TimeUs reported_at() const { return reported_at_; }
  std::size_t event_count() const { return tape_t_.size(); }
  // Materializes the recorded tape (tests/reporting; the scorer path uses
  // AddTimes, which reads the columns directly).
  std::vector<JgrEvent> events() const;
  const std::string& victim_name() const { return victim_name_; }

  // Sorted timestamps of recorded JGR creations (Algorithm 1's JGRAdds).
  std::vector<TimeUs> AddTimes() const;

  // Clears state after recovery so the monitor can re-arm.
  void Reset();

 private:
  SimClock* clock_;
  std::string victim_name_;
  Config config_;
  obs::Source source_;

  bool recording_ = false;
  bool reported_ = false;
  TimeUs alarm_at_ = 0;
  TimeUs reported_at_ = 0;
  std::size_t adds_since_alarm_ = 0;
  // The recorded tape, struct-of-arrays.
  std::vector<TimeUs> tape_t_;
  std::vector<std::uint8_t> tape_is_add_;
  std::vector<std::uint64_t> tape_count_after_;
};

}  // namespace jgre::defense

#endif  // JGRE_DEFENSE_JGR_MONITOR_H_
