// CoverageProbe — the fuzzer's feedback signal, fed by the obs EventBus.
//
// The simulator has no branch counters to instrument, but it has something
// better suited to this bug class: the unified event stream. The probe
// subscribes to kIpc and kJgr (plus kLmk for detonations) on one execution's
// bus and folds every top-level transaction into a *signature element*:
//
//   hash( ipc type key (descriptor_id<<32 | code),
//         victim JGR delta across the call (bucketed),
//         #jgr adds, #jgr removes within the call )
//
// i.e. "calling this interface moved the service's retained state like
// this". A register that retains 3 JGRs, the same register hitting a full
// per-process slot (delta 0), an unregister releasing entries, and a runtime
// abort all hash to different elements — exactly the service-side state
// transitions and JGR-table delta signatures the campaign treats as new
// coverage. Element hashes are FNV over fixed-width fields of deterministic
// ids, so a signature is stable across runs, shards, and machines.
#ifndef JGRE_FUZZ_COVERAGE_H_
#define JGRE_FUZZ_COVERAGE_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/event.h"
#include "obs/event_bus.h"

namespace jgre::fuzz {

class CoverageProbe : public obs::EventSink {
 public:
  // Subscribes to kIpc|kJgr|kLmk on `bus`; unsubscribes on destruction.
  explicit CoverageProbe(obs::EventBus* bus);
  ~CoverageProbe() override;

  CoverageProbe(const CoverageProbe&) = delete;
  CoverageProbe& operator=(const CoverageProbe&) = delete;

  // Folds one event; order-dependent across kIpc/kJgr interleavings, which
  // the bus delivers in emission order.
  void OnEvent(const obs::TraceEvent& event) override;

  // Finalizes the in-flight call and returns the sorted unique signature
  // elements observed since construction (or the last Take).
  std::vector<std::uint64_t> TakeElements();

  // Maps a raw victim-JGR delta to its signature bucket (exact for small
  // deltas, coarse beyond) — exposed for tests.
  static int DeltaBucket(std::int64_t delta);

 private:
  void FlushCall();

  obs::EventBus* bus_;
  std::set<std::uint64_t> elements_;
  // In-flight top-level transaction.
  bool call_open_ = false;
  std::int64_t call_key_ = 0;
  std::int32_t callee_pid_ = -1;
  std::int64_t jgr_at_call_start_ = 0;
  int adds_in_call_ = 0;
  int removes_in_call_ = 0;
  // Last JGR count observed per pid (kJgr arg0 = count after the op).
  std::map<std::int32_t, std::int64_t> last_jgr_;
};

}  // namespace jgre::fuzz

#endif  // JGRE_FUZZ_COVERAGE_H_
