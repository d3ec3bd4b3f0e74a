// Fixed-capacity ring buffer with monotonically growing logical indices.
//
// Backs obs::TraceBuffer and the fleet probe's hunt window: values are
// appended forever, the buffer retains only the newest `capacity` of them,
// and readers address values by their *logical* index (0-based, never
// reused), so the count that fell off the front is end_index() - size().
// Storage grows lazily up to the capacity — an idle buffer costs nothing —
// and never reallocates once full.
#ifndef JGRE_COMMON_RING_BUFFER_H_
#define JGRE_COMMON_RING_BUFFER_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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

  // Value at logical index `index`; must be within [first_index, end_index).
  const T& At(std::uint64_t index) const {
    assert(index >= first_index() && index < end_index());
    const std::size_t offset =
        static_cast<std::size_t>(index - first_index());
    std::size_t pos = head_ + offset;
    if (pos >= storage_.size()) pos -= storage_.size();
    return storage_[pos];
  }

 private:
  std::size_t capacity_;
  std::vector<T> storage_;
  std::size_t head_ = 0;  // physical position of the oldest value when full
  std::uint64_t total_pushed_ = 0;
};

}  // namespace jgre

#endif  // JGRE_COMMON_RING_BUFFER_H_
