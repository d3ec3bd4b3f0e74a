#include "obs/event_bus.h"

#include <algorithm>
#include <cassert>

namespace jgre::obs {

EventBus::EventBus() {
  // Pre-intern the well-known labels in enum order so LabelIdOf(Label) is
  // the interned id in every simulation.
  for (LabelId id = 0; id < kWellKnownLabelCount; ++id) {
    const LabelId interned =
        labels_.Intern(WellKnownLabelName(static_cast<Label>(id)));
    assert(interned == id);
    (void)interned;
  }
}

void EventBus::Subscribe(EventSink* sink, CategoryMask mask) {
  if (sink == nullptr) return;
  Unsubscribe(sink);
  subs_.push_back(Subscription{sink, mask});
  for (int c = 0; c < kCategoryCount; ++c) {
    if (mask & MaskOf(static_cast<Category>(c))) ++want_counts_[c];
  }
}

void EventBus::Unsubscribe(EventSink* sink) {
  auto it = std::find_if(subs_.begin(), subs_.end(),
                         [sink](const Subscription& s) {
                           return s.sink == sink;
                         });
  if (it == subs_.end()) return;
  for (int c = 0; c < kCategoryCount; ++c) {
    if (it->mask & MaskOf(static_cast<Category>(c))) --want_counts_[c];
  }
  subs_.erase(it);
}

void EventBus::Emit(const TraceEvent& event) {
  ++emitted_;
  const CategoryMask bit = MaskOf(event.category);
  // Index-based: a sink's OnEvent may re-enter Emit (defense annotations
  // published while consuming a jgr event), which must not invalidate the
  // walk. Subscribe/Unsubscribe during dispatch is not supported.
  const std::size_t count = subs_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (subs_[i].mask & bit) subs_[i].sink->OnEvent(event);
  }
}

}  // namespace jgre::obs
