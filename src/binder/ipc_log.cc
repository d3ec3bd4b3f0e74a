#include "binder/ipc_log.h"

#include <algorithm>

namespace jgre::binder {

void IpcLog::Push(TimeUs timestamp_us, Pid from_pid, Uid from_uid, Pid to_pid,
                  NodeId target_node, std::uint32_t code,
                  DescriptorId descriptor_id) {
  if (timestamp_.size() < capacity_) {
    timestamp_.push_back(timestamp_us);
    from_pid_.push_back(from_pid.value());
    from_uid_.push_back(from_uid.value());
    to_pid_.push_back(to_pid.value());
    node_.push_back(target_node.value());
    code_.push_back(code);
    descriptor_.push_back(descriptor_id);
  } else {
    timestamp_[slot_] = timestamp_us;
    from_pid_[slot_] = from_pid.value();
    from_uid_[slot_] = from_uid.value();
    to_pid_[slot_] = to_pid.value();
    node_[slot_] = target_node.value();
    code_[slot_] = code;
    descriptor_[slot_] = descriptor_id;
    if (++slot_ == capacity_) slot_ = 0;
  }
  ++total_pushed_;
}

IpcRecord IpcLog::At(std::uint64_t logical) const {
  const std::size_t pos = SlotOf(logical);
  IpcRecord rec;
  rec.seq = logical + 1;
  rec.timestamp_us = timestamp_[pos];
  rec.from_pid = Pid{from_pid_[pos]};
  rec.from_uid = Uid{from_uid_[pos]};
  rec.to_pid = Pid{to_pid_[pos]};
  rec.target_node = NodeId{node_[pos]};
  rec.code = code_[pos];
  rec.descriptor_id = descriptor_[pos];
  return rec;
}

void IpcLog::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x49504C32);  // "IPL2": columnar spans
  out.U64(capacity_);
  out.U64(total_pushed_);
  const std::uint64_t first = first_index();
  const std::uint64_t count = size();
  for (std::uint64_t i = 0; i < count; ++i) out.U64(timestamp_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.I64(from_pid_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.I64(from_uid_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.I64(to_pid_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.I64(node_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.U32(code_[SlotOf(first + i)]);
  for (std::uint64_t i = 0; i < count; ++i) out.U32(descriptor_[SlotOf(first + i)]);
}

void IpcLog::RestoreState(snapshot::Deserializer& in,
                          std::size_t descriptor_count) {
  // Bytes one record takes: five 8-byte and two 4-byte columns.
  constexpr std::size_t kRecordBytes = 5 * 8 + 2 * 4;
  in.Marker(0x49504C32);
  const std::uint64_t capacity = in.U64();
  const std::uint64_t total = in.U64();
  slot_ = 0;
  total_pushed_ = 0;  // size() stays within the columns if the stream fails
  // The capacity is the booted driver's configuration, not state.
  if (in.ok() && capacity != capacity_) {
    in.Fail("IPC log capacity differs from the booted driver's");
    return;
  }
  const std::size_t count = static_cast<std::size_t>(
      std::min<std::uint64_t>(total, capacity_));
  if (!in.NeedRecords(count, kRecordBytes)) return;
  // Fresh columns, so a log restored in place keeps no room its last run
  // grew.
  timestamp_ = std::vector<std::uint64_t>(count);
  from_pid_ = std::vector<std::int32_t>(count);
  from_uid_ = std::vector<std::int32_t>(count);
  to_pid_ = std::vector<std::int32_t>(count);
  node_ = std::vector<std::int64_t>(count);
  code_ = std::vector<std::uint32_t>(count);
  descriptor_ = std::vector<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) timestamp_[i] = in.U64();
  for (std::size_t i = 0; i < count; ++i) {
    from_pid_[i] = static_cast<std::int32_t>(in.I64());
  }
  for (std::size_t i = 0; i < count; ++i) {
    from_uid_[i] = static_cast<std::int32_t>(in.I64());
  }
  for (std::size_t i = 0; i < count; ++i) {
    to_pid_[i] = static_cast<std::int32_t>(in.I64());
  }
  for (std::size_t i = 0; i < count; ++i) node_[i] = in.I64();
  for (std::size_t i = 0; i < count; ++i) code_[i] = in.U32();
  for (std::size_t i = 0; i < count && in.ok(); ++i) {
    descriptor_[i] = in.U32();
    if (descriptor_[i] >= descriptor_count) {
      in.Fail("IPC log record names an unknown descriptor");
    }
  }
  if (in.ok()) total_pushed_ = total;
}

}  // namespace jgre::binder
