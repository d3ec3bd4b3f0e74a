#include "runtime/indirect_reference_table.h"

#include <cassert>
#include <sstream>

#include "common/strings.h"

namespace jgre::rt {

namespace {
// Reference layout: [index+1 : bits 34..63][serial : bits 2..33][kind : 0..1].
// index is stored +1 so a valid reference is never 0 (NULL jobject).
constexpr int kKindBits = 2;
constexpr int kSerialBits = 32;
constexpr std::uint64_t kKindMask = (1ULL << kKindBits) - 1;
constexpr std::uint64_t kSerialMask = (1ULL << kSerialBits) - 1;
}  // namespace

IndirectRefKind GetIndirectRefKind(IndirectRef ref) {
  return static_cast<IndirectRefKind>(ref & kKindMask);
}

IndirectReferenceTable::IndirectReferenceTable(std::size_t max_entries,
                                               IndirectRefKind kind,
                                               std::string name)
    : max_entries_(max_entries), kind_(kind), name_(std::move(name)) {
  assert(max_entries_ > 0);
}

IndirectRef IndirectReferenceTable::EncodeRef(std::size_t index,
                                              std::uint32_t serial) const {
  return (static_cast<std::uint64_t>(index + 1) << (kKindBits + kSerialBits)) |
         ((static_cast<std::uint64_t>(serial) & kSerialMask) << kKindBits) |
         static_cast<std::uint64_t>(kind_);
}

bool IndirectReferenceTable::DecodeRef(IndirectRef ref, std::size_t* index,
                                       std::uint32_t* serial) const {
  if (ref == kNullIndirectRef) return false;
  if (static_cast<IndirectRefKind>(ref & kKindMask) != kind_) return false;
  const std::uint64_t biased_index = ref >> (kKindBits + kSerialBits);
  if (biased_index == 0) return false;
  *index = static_cast<std::size_t>(biased_index - 1);
  *serial = static_cast<std::uint32_t>((ref >> kKindBits) & kSerialMask);
  return true;
}

Result<IndirectRef> IndirectReferenceTable::Add(Cookie cookie, ObjectId obj) {
  assert(obj.valid());
  (void)cookie;  // holes are per-segment, so the list never crosses frames
  // Prefer reusing a hole inside the current segment: pop the head of the
  // segment's intrusive free list — O(1) where ART scans for holes above the
  // previous segment state before growing the top.
  if (free_head_ != kNoFreeSlot) {
    const std::size_t slot_index = free_head_;
    Slot& slot = slots_[slot_index];
    assert(!slot.active);
    assert(slot_index >= segment_start_);
    free_head_ = slot.next_free;
    slot.next_free = kNoFreeSlot;
    --hole_count_;
    slot.obj = obj;
    ++slot.serial;
    slot.active = true;
    ++live_entries_;
    ++total_adds_;
    return EncodeRef(slot_index, slot.serial);
  }
  if (top_index_ >= max_entries_) {
    // This is ART's "JNI ERROR (app bug): <name> reference table overflow
    // (max=...)" condition: the caller's runtime aborts.
    return ResourceExhausted(
        StrCat(name_, " reference table overflow (max=", max_entries_, ")"));
  }
  const std::size_t slot_index = top_index_++;
  if (slot_index >= slots_.size()) slots_.resize(slot_index + 1);
  Slot& slot = slots_[slot_index];
  slot.obj = obj;
  ++slot.serial;
  slot.active = true;
  ++live_entries_;
  ++total_adds_;
  return EncodeRef(slot_index, slot.serial);
}

bool IndirectReferenceTable::Remove(Cookie cookie, IndirectRef ref) {
  std::size_t index;
  std::uint32_t serial;
  if (!DecodeRef(ref, &index, &serial)) return false;
  if (index < cookie || index >= top_index_) return false;
  Slot& slot = slots_[index];
  if (!slot.active || slot.serial != serial) return false;  // stale reference
  slot.active = false;
  slot.obj = ObjectId{};
  slot.next_free = free_head_;
  free_head_ = static_cast<std::uint32_t>(index);
  ++hole_count_;
  --live_entries_;
  ++total_removes_;
  return true;
}

Result<ObjectId> IndirectReferenceTable::Get(IndirectRef ref) const {
  std::size_t index;
  std::uint32_t serial;
  if (!DecodeRef(ref, &index, &serial)) {
    return NotFound(StrCat(name_, ": invalid indirect ref"));
  }
  if (index >= top_index_) return NotFound(StrCat(name_, ": index past top"));
  const Slot& slot = slots_[index];
  if (!slot.active || slot.serial != serial) {
    return NotFound(StrCat(name_, ": stale indirect ref"));
  }
  return slot.obj;
}

IndirectReferenceTable::Cookie IndirectReferenceTable::PushFrame() {
  const Cookie cookie = static_cast<Cookie>(top_index_);
  segment_stack_.push_back(FrameState{segment_start_, free_head_});
  segment_start_ = cookie;
  free_head_ = kNoFreeSlot;  // inner frames never reuse outer frames' holes
  return cookie;
}

void IndirectReferenceTable::PopFrame(Cookie cookie) {
  assert(cookie == segment_start_ && "unbalanced PopFrame");
  for (std::size_t i = cookie; i < top_index_; ++i) {
    if (slots_[i].active) {
      slots_[i].active = false;
      slots_[i].obj = ObjectId{};
      --live_entries_;
      ++total_removes_;
    } else {
      // An inactive slot below the top is a hole of the popped frame; it is
      // released with the frame rather than staying reusable.
      --hole_count_;
    }
    slots_[i].next_free = kNoFreeSlot;
  }
  top_index_ = cookie;
  assert(!segment_stack_.empty());
  segment_start_ = segment_stack_.back().segment_start;
  free_head_ = segment_stack_.back().free_head;
  segment_stack_.pop_back();
}

void IndirectReferenceTable::VisitRoots(
    const std::function<void(ObjectId)>& visitor) const {
  for (std::size_t i = 0; i < top_index_; ++i) {
    if (slots_[i].active) visitor(slots_[i].obj);
  }
}

void IndirectReferenceTable::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x49525431);  // "IRT1"
  out.U64(max_entries_);
  out.U8(static_cast<std::uint8_t>(kind_));
  out.U64(top_index_);
  for (std::size_t i = 0; i < top_index_; ++i) {
    const Slot& slot = slots_[i];
    out.I64(slot.obj.value());
    out.U32(slot.serial);
    out.U32(slot.next_free);
    out.Bool(slot.active);
  }
  out.U32(free_head_);
  out.U64(hole_count_);
  out.U64(live_entries_);
  out.U32(segment_start_);
  out.U64(segment_stack_.size());
  for (const FrameState& frame : segment_stack_) {
    out.U32(frame.segment_start);
    out.U32(frame.free_head);
  }
  out.I64(total_adds_);
  out.I64(total_removes_);
}

void IndirectReferenceTable::RestoreState(snapshot::Deserializer& in) {
  constexpr std::size_t kSlotBytes = 8 + 4 + 4 + 1;
  in.Marker(0x49525431);
  const std::uint64_t max_entries = in.U64();
  const auto kind = static_cast<IndirectRefKind>(in.U8());
  if (in.ok() && (max_entries != max_entries_ || kind != kind_)) {
    in.Fail(StrCat(name_, ": IRT capacity/kind mismatch on restore"));
    return;
  }
  // The table empties first, so a stream that fails below leaves it
  // consistent; every index read back must name a slot below the top.
  slots_.clear();
  top_index_ = 0;
  free_head_ = kNoFreeSlot;
  hole_count_ = 0;
  live_entries_ = 0;
  segment_start_ = 0;
  segment_stack_.clear();
  const std::uint64_t top = in.U64();
  if (in.ok() && top > max_entries_) {
    in.Fail(StrCat(name_, ": IRT top index past its capacity"));
    return;
  }
  if (!in.NeedRecords(top, kSlotBytes)) return;
  const std::uint8_t* record = in.Take(top * kSlotBytes);
  if (!in.ok()) return;
  const auto in_table = [top](std::uint32_t index) {
    return index == kNoFreeSlot || index < top;
  };
  // The slots refill the storage the table has (see ReleaseIfOversized).
  snapshot::ReleaseIfOversized(slots_, static_cast<std::size_t>(top));
  slots_.resize(static_cast<std::size_t>(top));
  for (Slot& slot : slots_) {
    slot.obj = ObjectId{snapshot::Deserializer::LoadI64(record)};
    slot.serial = snapshot::Deserializer::LoadU32(record + 8);
    slot.next_free = snapshot::Deserializer::LoadU32(record + 12);
    slot.active = record[16] != 0;
    record += kSlotBytes;
    if (!in_table(slot.next_free)) {
      in.Fail(StrCat(name_, ": IRT free list leaves the table"));
      break;
    }
  }
  const std::uint32_t free_head = in.U32();
  const std::uint64_t hole_count = in.U64();
  const std::uint64_t live_entries = in.U64();
  const std::uint32_t segment_start = in.U32();
  const std::uint64_t frames = in.U64();
  if (in.ok() && (!in_table(free_head) || segment_start > top)) {
    in.Fail(StrCat(name_, ": IRT segment state leaves the table"));
  }
  if (in.NeedRecords(frames, 8)) {
    segment_stack_.resize(static_cast<std::size_t>(frames));
    for (FrameState& frame : segment_stack_) {
      frame.segment_start = in.U32();
      frame.free_head = in.U32();
      if (frame.segment_start > top || !in_table(frame.free_head)) {
        in.Fail(StrCat(name_, ": IRT frame state leaves the table"));
        break;
      }
    }
  }
  const std::int64_t total_adds = in.I64();
  const std::int64_t total_removes = in.I64();
  if (!in.ok()) {  // the table stays empty
    slots_.clear();
    segment_stack_.clear();
    return;
  }
  top_index_ = static_cast<std::size_t>(top);
  free_head_ = free_head;
  hole_count_ = static_cast<std::size_t>(hole_count);
  live_entries_ = static_cast<std::size_t>(live_entries);
  segment_start_ = segment_start;
  total_adds_ = total_adds;
  total_removes_ = total_removes;
}

std::string IndirectReferenceTable::DumpSummary() const {
  std::ostringstream os;
  os << name_ << ": " << live_entries_ << " of " << max_entries_
     << " entries in use (top=" << top_index_ << ", holes=" << hole_count_
     << ", adds=" << total_adds_ << ", removes=" << total_removes_ << ")";
  return os.str();
}

}  // namespace jgre::rt
