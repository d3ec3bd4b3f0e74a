// JGRE_TRACE — compile-time-disableable emission for trace-only categories.
//
// Functional events (kJgr, kIpc — the defense's monitors, the fleet probe,
// the hunts and fuzz coverage consume them) are emitted unconditionally
// behind a Wants() branch. Trace-only annotations (kGc,
// kLmk, kDefense) go through this macro so a -DJGRE_OBS_TRACING=OFF build
// removes them entirely: the acceptance bar is that bench_micro_hotpaths
// stays within 2% of the PR-1 envelope with tracing compiled out.
//
// Usage:
//   JGRE_TRACE(bus_ptr, obs::Category::kGc,
//              obs::MakeEvent(obs::Category::kGc, obs::Label::kGcRun, ...));
// The event expression is only evaluated when the bus exists and a
// subscriber wants the category.
#ifndef JGRE_OBS_TRACE_H_
#define JGRE_OBS_TRACE_H_

#include "obs/event_bus.h"

#if defined(JGRE_OBS_TRACING_DISABLED)
#define JGRE_TRACE_ENABLED 0
#define JGRE_TRACE(bus_ptr, category, event_expr) \
  do {                                            \
  } while (0)
#else
#define JGRE_TRACE_ENABLED 1
#define JGRE_TRACE(bus_ptr, category, event_expr)                      \
  do {                                                                 \
    ::jgre::obs::EventBus* jgre_trace_bus_ = (bus_ptr);                \
    if (jgre_trace_bus_ != nullptr && jgre_trace_bus_->Wants(category)) { \
      jgre_trace_bus_->Emit(event_expr);                               \
    }                                                                  \
  } while (0)
#endif

#endif  // JGRE_OBS_TRACE_H_
