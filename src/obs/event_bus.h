// EventBus — per-simulation publish/subscribe hub for TraceEvents.
//
// Owned by the kernel (one bus per simulated device, like the SimClock), so
// concurrent simulations never share observability state. Designed for a hot
// path that is almost always *untraced*: Wants(category) is a single array
// load, and emitters are expected to guard event construction behind it, so
// an unsubscribed category costs one predictable branch per operation —
// within the PR-1 perf envelope.
//
// Delivery modes:
//
// * kImmediate — the sink's OnEvent runs synchronously inside Emit(), in
//   subscription order. Required for sinks whose consumption has simulation
//   side effects (the defense's JgrMonitorHub advances virtual time per
//   recorded JGR op and its report flag is polled between transactions).
//   Immediate sinks may re-enter Emit(); they must not Subscribe/Unsubscribe
//   from inside OnEvent.
// * kBuffered — Emit() appends the (filtered) event to a per-subscription
//   flat staging buffer and returns; the sink sees the events later as one
//   contiguous OnBatch chunk when the bus flushes. Buffering replaces the
//   seed's per-event virtual dispatch on the hot path for every sink that
//   merely folds or copies events (trace rings, metrics, coverage): staging
//   an event is an indexed store plus a capacity check. A staging buffer
//   that fills mid-emission is drained in place, so no event is ever lost;
//   explicit Flush() calls are the read barrier every consumer needs before
//   inspecting a buffered sink's state.
#ifndef JGRE_OBS_EVENT_BUS_H_
#define JGRE_OBS_EVENT_BUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "obs/event.h"
#include "snapshot/serializer.h"

namespace jgre::obs {

enum class Delivery : std::uint8_t {
  kImmediate,  // OnEvent inside Emit (synchronous, may re-enter Emit)
  kBuffered,   // staged per-sink, delivered as OnBatch chunks on Flush
};

class EventBus {
 public:
  // Events a buffered subscription can stage before Emit() drains it
  // in place.
  static constexpr std::size_t kStagingCapacity = 4096;

  EventBus();

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // Subscribes `sink` to every category in `mask`; events with a pid are
  // additionally filtered to `pid_filter` unless it is -1. A sink may be
  // subscribed at most once (re-subscribing replaces the old subscription).
  void Subscribe(EventSink* sink, CategoryMask mask,
                 std::int32_t pid_filter = -1,
                 Delivery delivery = Delivery::kImmediate);
  // Flushes any staged events to `sink`, then removes the subscription.
  void Unsubscribe(EventSink* sink);

  // True if at least one subscriber wants `category`. Emitters check this
  // before building an event, so untraced categories stay near-free.
  bool Wants(Category category) const {
    return want_counts_[static_cast<unsigned>(category)] != 0;
  }

  void Emit(const TraceEvent& event);

  // Drains every buffered subscription's staging buffer, in subscription
  // order, as OnBatch chunks. The read barrier before any code inspects a
  // buffered sink (coverage element harvest, trace/metrics export, snapshot
  // capture). No-op when nothing is staged.
  void Flush();

  // Total events currently staged across buffered subscriptions (test/debug
  // visibility into flush seams).
  std::uint64_t pending_count() const;

  // Interns an event name, returning its dense deterministic id. Well-known
  // labels (obs::Label) are pre-interned in enum order by the constructor.
  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }
  const std::string& LabelName(LabelId id) const { return labels_.Name(id); }
  std::size_t label_count() const { return labels_.size(); }

  std::uint64_t emitted() const { return emitted_; }
  std::size_t subscriber_count() const { return subs_.size(); }

  // Checkpointing: the label interner (ids are referenced by serialized
  // TraceEvents and driver caches) and the emitted counter. Subscriptions
  // (and their staging buffers) are wiring and are rebuilt by their owners
  // after a restore; the snapshot orchestrator flushes before capturing so
  // no staged event is in flight at save time.
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
    std::int32_t pid_filter = -1;
    // Flat staging buffer (kStagingCapacity slots) + fill count; null for
    // immediate subscriptions. Not a ring: the buffer is always drained
    // whole before it would wrap, so staging stays an indexed store.
    // unique_ptr keeps Subscription movable and the immediate case
    // allocation-free.
    std::unique_ptr<std::vector<TraceEvent>> staging;
    std::uint32_t staged = 0;
  };

  void FlushSub(Subscription& sub);

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
