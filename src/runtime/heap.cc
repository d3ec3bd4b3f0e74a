#include "runtime/heap.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace jgre::rt {

ObjectId Heap::Alloc(ObjectKind kind) {
  const ObjectId id{next_id_++};
  kind_.push_back(static_cast<std::uint8_t>(kind));
  holds_.push_back(0);
  managed_ref_.push_back(kHeapNullRef);
  weak_ref_.push_back(kHeapNullRef);
  node_.push_back(NodeId{}.value());
  ++live_count_;
  // Fresh objects start unheld, so they are collection candidates until
  // someone takes a hold.
  unheld_candidates_.push_back(id);
  return id;
}

void Heap::Free(ObjectId id) {
  if (!IsAlive(id)) return;
  const std::size_t slot = SlotOf(id);
  kind_[slot] = 0;
  holds_[slot] = kDeadSlot;
  managed_ref_[slot] = kHeapNullRef;
  weak_ref_[slot] = kHeapNullRef;
  node_[slot] = NodeId{}.value();
  --live_count_;
}

std::vector<ObjectId> Heap::UnheldObjects() const {
  std::vector<ObjectId> out;
  for (std::int64_t id = 1; id < next_id_; ++id) {
    if (holds_[static_cast<std::size_t>(id - 1)] == 0) out.push_back(ObjectId{id});
  }
  return out;
}

void Heap::TakeUnheldCandidates(std::vector<ObjectId>* out) {
  out->clear();
  if (unheld_candidates_.empty()) return;
  // Allocation-order transitions arrive ascending already; skip the sort
  // for that common case (garbage minted in id order, swept in id order).
  if (!std::is_sorted(unheld_candidates_.begin(),
                      unheld_candidates_.end())) {
    std::sort(unheld_candidates_.begin(), unheld_candidates_.end());
  }
  ObjectId last{};
  for (ObjectId id : unheld_candidates_) {
    if (id == last) continue;  // duplicate transition
    last = id;
    if (IsAlive(id) && holds_[SlotOf(id)] == 0) out->push_back(id);
  }
  unheld_candidates_.clear();
}

void Heap::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x48454134);  // "HEA4": live-slot bitmap, then live columns
  out.I64(next_id_);
  // Per 64 slots: a bitmap word marking the live ones, then each live
  // slot's columns. Dead slots cost one bit, so a restore that sizes the
  // arena from the cursor never allocates more than the stream pays for.
  const std::size_t slots = holds_.size();
  for (std::size_t base = 0; base < slots; base += 64) {
    const std::size_t end = std::min(slots, base + 64);
    std::uint64_t live = 0;
    for (std::size_t slot = base; slot < end; ++slot) {
      if (holds_[slot] != kDeadSlot) live |= std::uint64_t{1} << (slot - base);
    }
    out.U64(live);
    for (std::size_t slot = base; slot < end; ++slot) {
      if (holds_[slot] == kDeadSlot) continue;
      out.U8(kind_[slot]);
      out.I64(holds_[slot]);
      out.U64(managed_ref_[slot]);
      out.U64(weak_ref_[slot]);
      out.I64(node_[slot]);
    }
  }
}

void Heap::RestoreState(snapshot::Deserializer& in) {
  // Bytes a live slot's record takes: kind, holds, both refs and the node.
  constexpr std::size_t kSlotBytes = 1 + 8 + 8 + 8 + 8;
  in.Marker(0x48454134);
  const std::int64_t next_id = in.I64();
  // The arena empties first and next_id_ tracks the columns, so IsAlive
  // stays in bounds even if the stream fails part-way.
  next_id_ = 1;
  kind_.clear();
  holds_.clear();
  managed_ref_.clear();
  weak_ref_.clear();
  node_.clear();
  unheld_candidates_.clear();
  live_count_ = 0;
  if (in.ok() && next_id < 1) {
    in.Fail("corrupt heap allocation cursor");
    return;
  }
  const std::uint64_t slots = static_cast<std::uint64_t>(next_id - 1);
  if (!in.NeedRecords((slots + 63) / 64, 8)) return;
  // The columns refill the storage they have (see ReleaseIfOversized).
  const std::size_t need = static_cast<std::size_t>(slots);
  snapshot::ReleaseIfOversized(kind_, need);
  snapshot::ReleaseIfOversized(holds_, need);
  snapshot::ReleaseIfOversized(managed_ref_, need);
  snapshot::ReleaseIfOversized(weak_ref_, need);
  snapshot::ReleaseIfOversized(node_, need);
  snapshot::ReleaseIfOversized(unheld_candidates_, need);
  kind_.assign(need, 0);
  holds_.assign(need, kDeadSlot);
  managed_ref_.assign(need, kHeapNullRef);
  weak_ref_.assign(need, kHeapNullRef);
  node_.assign(need, NodeId{}.value());
  next_id_ = next_id;
  for (std::size_t base = 0; base < slots && in.ok(); base += 64) {
    const std::uint64_t live = in.U64();
    const std::size_t end = std::min<std::size_t>(slots, base + 64);
    if (end - base < 64 && (live >> (end - base)) != 0) {
      in.Fail("heap bitmap marks slots past the allocation cursor");
      return;
    }
    // One bounds check for the block's live records, then fixed-width loads.
    const std::uint8_t* record =
        in.Take(static_cast<std::uint64_t>(std::popcount(live)) * kSlotBytes);
    if (!in.ok()) return;
    for (std::uint64_t rest = live; rest != 0; rest &= rest - 1) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(rest));
      const std::uint8_t kind = record[0];
      const std::int64_t holds = snapshot::Deserializer::LoadI64(record + 1);
      if (kind > static_cast<std::uint8_t>(ObjectKind::kClassRoot) ||
          holds < 0 || holds > std::numeric_limits<std::int32_t>::max()) {
        in.Fail("heap object kind or hold count out of range");
        return;
      }
      kind_[slot] = kind;
      holds_[slot] = static_cast<std::int32_t>(holds);
      managed_ref_[slot] = snapshot::Deserializer::LoadU64(record + 9);
      weak_ref_[slot] = snapshot::Deserializer::LoadU64(record + 17);
      node_[slot] = snapshot::Deserializer::LoadI64(record + 25);
      record += kSlotBytes;
      ++live_count_;
      if (holds == 0) {
        unheld_candidates_.push_back(
            ObjectId{static_cast<std::int64_t>(slot) + 1});
      }
    }
  }
}

}  // namespace jgre::rt
