// TraceEvent / EventSink — the unified observability model (the EventSink
// API every subsystem publishes into).
//
// One flat, trivially-copyable record describes everything the simulator can
// observe: JGR table mutations, binder transactions, GC runs, LMK/process
// kills, and defense actions. Subsystems publish TraceEvents into a
// per-simulation EventBus (see event_bus.h); consumers — the defense's
// JgrMonitor, trace ring buffers, metrics sinks, the fleet probe and fuzz
// coverage — implement EventSink and subscribe by category. This replaces the three
// bespoke observation hooks the seed grew (rt::JgrObserver, direct IPC-log
// polling, and per-bench counters) with one shape.
#ifndef JGRE_OBS_EVENT_H_
#define JGRE_OBS_EVENT_H_

#include <cstdint>
#include <type_traits>

#include "common/types.h"

namespace jgre::obs {

// Event categories. Kept deliberately coarse: subscription filtering and the
// compile-time tracing gate both work at category granularity.
enum class Category : std::uint8_t {
  kJgr = 0,  // JNI global reference add/remove/overflow (functional: the
             // defense's monitors consume these)
  kIpc,      // binder transactions (functional: the fleet probe, the hunts
             // and fuzz coverage consume these)
  kGc,       // garbage collection runs (trace-only)
  kLmk,      // process kills, LMK decisions, soft reboots (trace-only)
  kDefense,  // monitor alarms/reports, incident handling (trace-only)
};

inline constexpr int kCategoryCount = 5;

using CategoryMask = std::uint8_t;

constexpr CategoryMask MaskOf(Category c) {
  return static_cast<CategoryMask>(1u << static_cast<unsigned>(c));
}

inline constexpr CategoryMask kAllCategories =
    static_cast<CategoryMask>((1u << kCategoryCount) - 1);

constexpr const char* CategoryName(Category c) {
  switch (c) {
    case Category::kJgr:
      return "jgr";
    case Category::kIpc:
      return "ipc";
    case Category::kGc:
      return "gc";
    case Category::kLmk:
      return "lmk";
    case Category::kDefense:
      return "defense";
  }
  return "?";
}

// Dense id of an interned event name (EventBus::InternLabel). The well-known
// labels below are pre-interned by every EventBus in enum order, so their ids
// are fixed constants across simulations — a deterministic boot yields
// deterministic trace bytes.
using LabelId = std::uint32_t;

enum class Label : LabelId {
  kJgrAdd = 0,
  kJgrRemove,
  kJgrOverflow,
  kIpcTransact,  // fallback when a node has no interned descriptor
  kGcRun,
  kLmkKill,
  kProcessKill,
  kSoftReboot,
  kMonitorAlarm,
  kMonitorReport,
  kIncidentIdentified,
  kDefenseKill,
  kIncidentRecovered,
  // Weak-global table mutations (appended: well-known ids are frozen in enum
  // order, so new labels only ever extend the tail). Emission is opt-in per
  // runtime — see rt::JavaVMExt::SetWeakEventEmission — because every
  // BinderProxy mint touches the weak table and always-on emission would
  // reshape every existing trace.
  kJgrWeakAdd,
  kJgrWeakRemove,
};

inline constexpr LabelId kWellKnownLabelCount =
    static_cast<LabelId>(Label::kJgrWeakRemove) + 1;

constexpr LabelId LabelIdOf(Label label) {
  return static_cast<LabelId>(label);
}

constexpr const char* WellKnownLabelName(Label label) {
  switch (label) {
    case Label::kJgrAdd:
      return "jgr_add";
    case Label::kJgrRemove:
      return "jgr_remove";
    case Label::kJgrOverflow:
      return "jgr_overflow";
    case Label::kIpcTransact:
      return "transact";
    case Label::kGcRun:
      return "gc";
    case Label::kLmkKill:
      return "lmk_kill";
    case Label::kProcessKill:
      return "process_kill";
    case Label::kSoftReboot:
      return "soft_reboot";
    case Label::kMonitorAlarm:
      return "monitor_alarm";
    case Label::kMonitorReport:
      return "monitor_report";
    case Label::kIncidentIdentified:
      return "incident_identified";
    case Label::kDefenseKill:
      return "defense_kill";
    case Label::kIncidentRecovered:
      return "incident_recovered";
    case Label::kJgrWeakAdd:
      return "jgr_weak_add";
    case Label::kJgrWeakRemove:
      return "jgr_weak_remove";
  }
  return "?";
}

// One observed event. 48 bytes, trivially copyable — buffering an event is a
// flat store into a ring, no allocation. Per-category argument meanings:
//   kJgr:     arg0 = JGR count after the operation, arg1 = object id
//   kIpc:     arg0 = callee pid, arg1 = (descriptor_id << 32) | code — the
//             defense::MakeIpcTypeKey packing Algorithm 1 groups by
//   kGc:      arg0 = JGRs released, arg1 = JGR count after; dur = pause
//   kLmk:     arg0 = oom_score_adj (kills) / free kB, arg1 = critical flag
//   kDefense: see the emission sites in defense/
struct TraceEvent {
  TimeUs ts_us = 0;
  DurationUs dur_us = 0;  // 0 = instant event
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::int32_t pid = -1;  // emitting (for kIpc: calling) process, -1 = none
  std::int32_t uid = -1;
  LabelId name = 0;
  Category category = Category::kJgr;
};

static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == 48, "keep the hot-path store flat");

constexpr TraceEvent MakeEvent(Category category, LabelId name, TimeUs ts_us,
                               std::int32_t pid, std::int32_t uid,
                               std::int64_t arg0 = 0, std::int64_t arg1 = 0,
                               DurationUs dur_us = 0) {
  TraceEvent event;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.arg0 = arg0;
  event.arg1 = arg1;
  event.pid = pid;
  event.uid = uid;
  event.name = name;
  event.category = category;
  return event;
}

constexpr TraceEvent MakeEvent(Category category, Label label, TimeUs ts_us,
                               std::int32_t pid, std::int32_t uid,
                               std::int64_t arg0 = 0, std::int64_t arg1 = 0,
                               DurationUs dur_us = 0) {
  return MakeEvent(category, LabelIdOf(label), ts_us, pid, uid, arg0, arg1,
                   dur_us);
}

// The one observation interface. Implementations: defense::JgrMonitorHub,
// obs::TraceBuffer, obs::MetricsSink, the fleet probe, fuzz coverage. The
// bus calls OnEvent synchronously inside Emit() (see event_bus.h).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

}  // namespace jgre::obs

#endif  // JGRE_OBS_EVENT_H_
