// EventBus — per-simulation publish/subscribe hub for TraceEvents.
//
// Owned by the kernel (one bus per simulated device, like the SimClock), so
// concurrent simulations never share observability state. Designed for a hot
// path that is almost always *untraced*: Wants(category) is a single array
// load, and emitters are expected to guard event construction behind it, so
// an unsubscribed category costs one predictable branch per operation.
//
// The bus delivers synchronously: every subscribed sink's OnEvent runs
// inside Emit(), in subscription order. The defense's JgrMonitorHub depends
// on it (recording monitors advance virtual time per JGR op, and the
// defender polls the report flag between transactions); the pure folds
// (trace ring, metrics, fleet probe, fuzz coverage) are always up to date,
// so nothing needs a read barrier before inspecting a sink. Sinks may
// re-enter Emit(); they must not Subscribe/Unsubscribe from inside OnEvent.
#ifndef JGRE_OBS_EVENT_BUS_H_
#define JGRE_OBS_EVENT_BUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "obs/event.h"
#include "snapshot/serializer.h"

namespace jgre::obs {

class EventBus {
 public:
  EventBus();

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // Subscribes `sink` to every category in `mask`. A sink may be subscribed
  // at most once (re-subscribing replaces the old subscription).
  void Subscribe(EventSink* sink, CategoryMask mask);
  void Unsubscribe(EventSink* sink);

  // True if at least one subscriber wants `category`. Emitters check this
  // before building an event, so untraced categories stay near-free.
  bool Wants(Category category) const {
    return want_counts_[static_cast<unsigned>(category)] != 0;
  }

  void Emit(const TraceEvent& event);

  // Interns an event name, returning its dense deterministic id. Well-known
  // labels (obs::Label) are pre-interned in enum order by the constructor.
  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }
  const std::string& LabelName(LabelId id) const { return labels_.Name(id); }
  std::size_t label_count() const { return labels_.size(); }

  std::uint64_t emitted() const { return emitted_; }
  std::size_t subscriber_count() const { return subs_.size(); }

  // Checkpointing: the label interner (ids are referenced by serialized
  // TraceEvents and driver caches) and the emitted counter. Subscriptions
  // are wiring and are rebuilt by their owners after a restore.
  void SaveState(snapshot::Serializer& out) const {
    labels_.SaveState(out);
    out.U64(emitted_);
  }
  void RestoreState(snapshot::Deserializer& in) {
    labels_.RestoreState(in);
    emitted_ = in.U64();
  }

 private:
  struct Subscription {
    EventSink* sink = nullptr;
    CategoryMask mask = 0;
  };

  std::vector<Subscription> subs_;
  int want_counts_[kCategoryCount] = {};
  StringInterner labels_;
  std::uint64_t emitted_ = 0;
};

// Where a subsystem publishes from: the bus plus the emitting process
// identity. Passed down into per-process components (Runtime, JavaVMExt) at
// construction so emission sites never look their own pid up.
struct Source {
  EventBus* bus = nullptr;
  std::int32_t pid = -1;
  std::int32_t uid = -1;

  bool Active(Category category) const {
    return bus != nullptr && bus->Wants(category);
  }
};

}  // namespace jgre::obs

#endif  // JGRE_OBS_EVENT_BUS_H_
