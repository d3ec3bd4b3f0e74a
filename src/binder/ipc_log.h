// IpcLog — the defense's kernel-side transaction log as a struct-of-arrays
// ring.
//
// The extended driver appends one record per transaction on the hot path, so
// the log is stored as flat per-field columns (timestamp, from/to pids, uid,
// node, code, descriptor id) over a shared ring cursor instead of a ring of
// 48-byte structs. An append is seven column stores with no struct assembly;
// a checkpoint serializes each column as a flat span.
//
// Sequence numbers are not stored at all: seqs start at 1 and are assigned
// in push order, so the record at logical ring index i has seq i + 1 and the
// next seq to be assigned is end_index() + 1.
#ifndef JGRE_BINDER_IPC_LOG_H_
#define JGRE_BINDER_IPC_LOG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/interner.h"
#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre::binder {

// Dense id of an interned interface descriptor (see BinderDriver::
// DescriptorName). Assigned in registration order, so a deterministic boot
// yields deterministic ids.
using DescriptorId = StringInterner::Id;

// One materialized record of the defense's binder-driver IPC log — the view
// handed to log readers; storage is columnar (IpcLog).
struct IpcRecord {
  std::uint64_t seq = 0;
  TimeUs timestamp_us = 0;
  Pid from_pid;
  Uid from_uid;
  Pid to_pid;
  NodeId target_node;
  std::uint32_t code = 0;
  // Interface descriptor + code give the "type of IPC interface" Algorithm 1
  // groups by; on real Android the defender recovers this from the handle.
  DescriptorId descriptor_id = StringInterner::kInvalidId;
};

class IpcLog {
 public:
  explicit IpcLog(std::size_t capacity) : capacity_(capacity) {}

  IpcLog(const IpcLog&) = delete;
  IpcLog& operator=(const IpcLog&) = delete;

  void Push(TimeUs timestamp_us, Pid from_pid, Uid from_uid, Pid to_pid,
            NodeId target_node, std::uint32_t code, DescriptorId descriptor_id);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return total_pushed_ < capacity_ ? static_cast<std::size_t>(total_pushed_)
                                     : capacity_;
  }
  // Logical indices over the whole pushed history; retained records cover
  // [first_index, end_index).
  std::uint64_t end_index() const { return total_pushed_; }
  std::uint64_t first_index() const { return total_pushed_ - size(); }
  std::uint64_t next_seq() const { return total_pushed_ + 1; }

  // Materializes the record at logical index (must be retained).
  IpcRecord At(std::uint64_t logical) const;

  // Invokes `fn(const IpcRecord&)` on retained records with logical index in
  // [since, end_index), oldest first. Returns the number visited.
  template <typename Fn>
  std::size_t VisitSince(std::uint64_t since, Fn&& fn) const {
    std::size_t visited = 0;
    for (std::uint64_t index = std::max(since, first_index());
         index < end_index(); ++index, ++visited) {
      fn(At(index));
    }
    return visited;
  }

  // Checkpointing: the retained columns as flat spans in logical order,
  // oldest record first; restore re-linearizes the ring (slot_ = 0). The
  // image must carry this log's capacity, and every record a descriptor id
  // below `descriptor_count`; otherwise the stream fails.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in, std::size_t descriptor_count);

 private:
  std::size_t SlotOf(std::uint64_t logical) const {
    std::size_t pos = slot_ + static_cast<std::size_t>(logical - first_index());
    if (pos >= timestamp_.size()) pos -= timestamp_.size();
    return pos;
  }

  std::size_t capacity_;
  // Ring slot holding the oldest retained record; columns grow lazily until
  // they reach capacity_, then the cursor wraps and overwrites the oldest.
  std::size_t slot_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::vector<std::uint64_t> timestamp_;
  std::vector<std::int32_t> from_pid_;
  std::vector<std::int32_t> from_uid_;
  std::vector<std::int32_t> to_pid_;
  std::vector<std::int64_t> node_;
  std::vector<std::uint32_t> code_;
  std::vector<std::uint32_t> descriptor_;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_IPC_LOG_H_
