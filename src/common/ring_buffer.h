// Fixed-capacity ring buffer with monotonically growing logical indices.
//
// Backs the binder driver's IPC log: records are appended forever, the
// buffer retains only the newest `capacity` of them, and readers address
// records by their *logical* index (0-based, never reused), so a reader that
// kept a watermark can resume exactly where it left off even after old
// records were overwritten. Storage grows lazily up to the capacity — an
// idle log costs nothing — and never reallocates once full, unlike the
// std::deque the seed implementation used (which both allocated per block
// and was copied wholesale on every read).
#ifndef JGRE_COMMON_RING_BUFFER_H_
#define JGRE_COMMON_RING_BUFFER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "snapshot/serializer.h"

namespace jgre {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ > 0);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }

  // Total number of values ever pushed.
  std::uint64_t total_pushed() const { return total_pushed_; }
  // Logical index of the oldest value still retained.
  std::uint64_t first_index() const { return total_pushed_ - size(); }
  // One past the logical index of the newest value.
  std::uint64_t end_index() const { return total_pushed_; }

  void Push(T value) {
    if (storage_.size() < capacity_) {
      storage_.push_back(std::move(value));
    } else {
      storage_[head_] = std::move(value);
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++total_pushed_;
  }

  // Bulk append — observationally identical to pushing each value in order
  // (same logical indices, same retained values, same save bytes), but
  // copies whole contiguous runs instead of one branchy store per value.
  // When `count` is at least the capacity only the newest `capacity` values
  // land, exactly as repeated Push would leave it.
  void PushBulk(const T* items, std::size_t count) {
    total_pushed_ += count;
    if (count >= capacity_) {
      items += count - capacity_;
      storage_.assign(items, items + capacity_);
      head_ = 0;
      return;
    }
    std::size_t remaining = count;
    if (storage_.size() < capacity_) {
      // Not yet full, so head_ is 0 and new values grow the tail.
      const std::size_t grow =
          std::min(remaining, capacity_ - storage_.size());
      storage_.insert(storage_.end(), items, items + grow);
      items += grow;
      remaining -= grow;
    }
    while (remaining > 0) {
      const std::size_t run = std::min(remaining, storage_.size() - head_);
      std::copy_n(items, run, storage_.begin() + head_);
      head_ += run;
      if (head_ == storage_.size()) head_ = 0;
      items += run;
      remaining -= run;
    }
  }

  // Value at logical index `index`; must be within [first_index, end_index).
  const T& At(std::uint64_t index) const {
    assert(index >= first_index() && index < end_index());
    const std::size_t offset =
        static_cast<std::size_t>(index - first_index());
    std::size_t pos = head_ + offset;
    if (pos >= storage_.size()) pos -= storage_.size();
    return storage_[pos];
  }

  void Clear() {
    storage_.clear();
    head_ = 0;
    // total_pushed_ keeps counting: logical indices are never reused.
  }

  // Result of a DrainSince pass: where the reader's watermark should move,
  // how many values it visited, and how many it missed because they were
  // overwritten before it caught up (reader overrun).
  struct DrainStats {
    std::uint64_t next = 0;     // new watermark (== end_index() at drain time)
    std::uint64_t visited = 0;  // values delivered through the callback
    std::uint64_t dropped = 0;  // values lost to overwrite before the drain
  };

  // Visits every retained value with logical index >= `since`, oldest first,
  // as at most two contiguous chunks `chunk(const T* data, size_t count)`.
  // A watermark older than first_index() has been overrun: the missing
  // values are counted in `dropped` and the visit starts at the oldest
  // retained value. The per-sink staging buffers in obs::EventBus drain
  // through this — one virtual batch call per chunk instead of one per event.
  template <typename ChunkFn>
  DrainStats DrainSince(std::uint64_t since, ChunkFn&& chunk) const {
    DrainStats stats;
    stats.next = end_index();
    const std::uint64_t first = first_index();
    if (since > stats.next) since = stats.next;  // future watermark: clamp
    if (since < first) {
      stats.dropped = first - since;
      since = first;
    }
    stats.visited = stats.next - since;
    if (stats.visited == 0) return stats;
    // Physical layout: oldest lives at head_, wrapping at storage_.size().
    std::size_t pos = head_ + static_cast<std::size_t>(since - first);
    if (pos >= storage_.size()) pos -= storage_.size();
    const std::size_t run =
        std::min(static_cast<std::size_t>(stats.visited),
                 storage_.size() - pos);
    chunk(storage_.data() + pos, run);
    if (run < stats.visited) {
      chunk(storage_.data(), static_cast<std::size_t>(stats.visited) - run);
    }
    return stats;
  }

  // Checkpointing. Retained values are written oldest-to-newest through
  // `save_value(out, v)`; restore linearizes the storage (head_ = 0) but
  // preserves every logical index, so readers' watermarks stay valid and a
  // re-saved buffer produces identical bytes. The capacity is the
  // constructor's configuration: an image with another one fails the stream.
  template <typename SaveValueFn>
  void SaveState(snapshot::Serializer& out, SaveValueFn save_value) const {
    out.U64(capacity_);
    out.U64(total_pushed_);
    out.U64(size());
    for (std::uint64_t i = first_index(); i < end_index(); ++i) {
      save_value(out, At(i));
    }
  }
  template <typename LoadValueFn>
  void RestoreState(snapshot::Deserializer& in, LoadValueFn load_value) {
    const std::uint64_t capacity = in.U64();
    const std::uint64_t total = in.U64();
    const std::uint64_t retained = in.U64();
    storage_.clear();
    head_ = 0;
    total_pushed_ = 0;
    if (capacity != capacity_ || retained > capacity_ || retained > total) {
      in.Fail("corrupt ring buffer header");
      return;
    }
    for (std::uint64_t i = 0; i < retained && in.ok(); ++i) {
      storage_.push_back(load_value(in));
    }
    if (!in.ok()) {
      storage_.clear();
      return;
    }
    total_pushed_ = total;
  }

 private:
  std::size_t capacity_;
  std::vector<T> storage_;
  std::size_t head_ = 0;  // physical position of the oldest value when full
  std::uint64_t total_pushed_ = 0;
};

}  // namespace jgre

#endif  // JGRE_COMMON_RING_BUFFER_H_
