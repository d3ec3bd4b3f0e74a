// TraceBuffer — a bounded EventSink retaining the newest events.
//
// One per traced simulation. Built on the logical-index RingBuffer: events
// are appended forever, only the newest `capacity` are retained, and
// dropped() reports how many fell off the front — exporters surface that
// count so a truncated trace never silently reads as complete.
#ifndef JGRE_OBS_TRACE_BUFFER_H_
#define JGRE_OBS_TRACE_BUFFER_H_

#include <cstddef>
#include <cstdint>

#include "common/ring_buffer.h"
#include "obs/event.h"

namespace jgre::obs {

class TraceBuffer : public EventSink {
 public:
  // 1M events × 48 B ≈ 48 MB ceiling, reached lazily; a full fig3-scale
  // defended attack emits well under this.
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  void OnEvent(const TraceEvent& event) override { ring_.Push(event); }

  const RingBuffer<TraceEvent>& events() const { return ring_; }
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  std::uint64_t total_seen() const { return ring_.total_pushed(); }
  std::uint64_t dropped() const { return ring_.total_pushed() - ring_.size(); }

 private:
  RingBuffer<TraceEvent> ring_;
};

}  // namespace jgre::obs

#endif  // JGRE_OBS_TRACE_BUFFER_H_
