#include "fuzz/coverage.h"

namespace jgre::fuzz {

namespace {

constexpr obs::CategoryMask kProbeMask = obs::MaskOf(obs::Category::kIpc) |
                                         obs::MaskOf(obs::Category::kJgr) |
                                         obs::MaskOf(obs::Category::kLmk);

std::uint64_t HashElement(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint8_t bytes[24];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(a >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(b >> (8 * i));
    bytes[16 + i] = static_cast<std::uint8_t>(c >> (8 * i));
  }
  return snapshot::Fnv1a(bytes, sizeof(bytes));
}

}  // namespace

CoverageProbe::CoverageProbe(obs::EventBus* bus) : bus_(bus) {
  bus_->Subscribe(this, kProbeMask);
}

CoverageProbe::~CoverageProbe() { bus_->Unsubscribe(this); }

int CoverageProbe::DeltaBucket(std::int64_t delta) {
  // Exact around the interesting region (0..3 JGRs per call is where the
  // retention patterns live), coarse beyond so noisy handlers don't explode
  // the signature space.
  if (delta <= -2) return -2;
  if (delta <= 3) return static_cast<int>(delta);
  if (delta <= 7) return 4;
  return 5;
}

void CoverageProbe::FlushCall() {
  if (!call_open_) return;
  call_open_ = false;
  const std::int64_t now = last_jgr_.count(callee_pid_) != 0
                               ? last_jgr_[callee_pid_]
                               : jgr_at_call_start_;
  const int bucket = DeltaBucket(now - jgr_at_call_start_);
  elements_.insert(HashElement(
      static_cast<std::uint64_t>(call_key_),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bucket)),
      (static_cast<std::uint64_t>(adds_in_call_ > 7 ? 7 : adds_in_call_) << 8) |
          static_cast<std::uint64_t>(removes_in_call_ > 7 ? 7
                                                          : removes_in_call_)));
}

void CoverageProbe::OnEvent(const obs::TraceEvent& event) {
  switch (event.category) {
    case obs::Category::kIpc: {
      FlushCall();
      call_open_ = true;
      call_key_ = event.arg1;  // (descriptor_id << 32) | code
      callee_pid_ = static_cast<std::int32_t>(event.arg0);
      jgr_at_call_start_ = last_jgr_.count(callee_pid_) != 0
                               ? last_jgr_[callee_pid_]
                               : 0;
      adds_in_call_ = 0;
      removes_in_call_ = 0;
      break;
    }
    case obs::Category::kJgr: {
      last_jgr_[event.pid] = event.arg0;  // count after the operation
      if (call_open_ && event.pid == callee_pid_) {
        if (event.name == obs::LabelIdOf(obs::Label::kJgrAdd)) {
          ++adds_in_call_;
        } else if (event.name == obs::LabelIdOf(obs::Label::kJgrRemove)) {
          ++removes_in_call_;
        } else {
          // Overflow: its own element — the detonation transition.
          elements_.insert(HashElement(static_cast<std::uint64_t>(call_key_),
                                       0x4F564552u /* "OVER" */,
                                       static_cast<std::uint64_t>(event.pid)));
        }
      }
      break;
    }
    case obs::Category::kLmk: {
      if (event.name == obs::LabelIdOf(obs::Label::kSoftReboot)) {
        elements_.insert(HashElement(0x534F4654u /*SOFT*/, 0,
                                     static_cast<std::uint64_t>(event.pid)));
      }
      break;
    }
    default:
      break;
  }
}

std::vector<std::uint64_t> CoverageProbe::TakeElements() {
  FlushCall();
  std::vector<std::uint64_t> out(elements_.begin(), elements_.end());
  elements_.clear();
  return out;
}

}  // namespace jgre::fuzz
