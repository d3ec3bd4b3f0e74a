#include "runtime/runtime.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace jgre::rt {

namespace {
// art/runtime/jni_env_ext: kLocalsMax.
constexpr std::size_t kLocalsMax = 512;
}  // namespace

Runtime::Runtime(SimClock* clock, Config config)
    : clock_(clock),
      config_(std::move(config)),
      // ART 6 caps both tables at kGlobalsMax; scaling the weak table with
      // the configured strong cap keeps that symmetry at every fleet
      // operating point (the weakref_churn arms strategy exhausts it).
      vm_(clock, config_.name, config_.max_global_refs,
          config_.max_global_refs, config_.obs),
      locals_(kLocalsMax, IndirectRefKind::kLocal,
              StrCat(config_.name, " JNI local")) {
  // Runtime-init references (WellKnownClasses::CacheClass etc.). They are
  // held forever, so the GC never reclaims them; the paper's static analysis
  // filters the 67 native paths that only run here.
  for (std::size_t i = 0; i < config_.boot_class_refs; ++i) {
    const ObjectId cls = heap_.Alloc(ObjectKind::kClassRoot);
    heap_.AddHold(cls);  // pinned by the class table
    auto ref = vm_.AddGlobalRef(cls);
    (void)ref;
  }
}

Result<IndirectRef> Runtime::AddLocalRef(ObjectId obj) {
  // Overflow ("local reference table overflow (max=512)") surfaces as a
  // failed call; unlike global overflow it cannot be accumulated across
  // transactions, because PopLocalFrame wipes the segment either way.
  return locals_.Add(locals_.CurrentCookie(), obj);
}

Result<ObjectId> Runtime::GetOrCreateBinderProxy(NodeId node) {
  const std::size_t node_slot = static_cast<std::size_t>(node.value());
  if (node_slot < proxy_by_node_.size() && proxy_by_node_[node_slot] != 0) {
    return ObjectId{proxy_by_node_[node_slot]};
  }
  const ObjectId proxy = heap_.Alloc(ObjectKind::kBinderProxy);
  auto ref = vm_.AddGlobalRef(proxy);
  if (!ref.ok()) {
    heap_.Free(proxy);
    return ref.status();
  }
  // libbinder's BinderProxy cache (gBinderProxyOffsets.mProxyMap) tracks the
  // proxy through a *weak* global reference — a second capped table the same
  // traffic fills.
  auto weak = vm_.AddWeakGlobalRef(proxy);
  if (!weak.ok()) {
    vm_.DeleteGlobalRef(ref.value());
    heap_.Free(proxy);
    return weak.status();
  }
  heap_.SetManagedRef(proxy, ref.value());
  heap_.SetWeakRef(proxy, weak.value());
  heap_.SetProxyNode(proxy, node);
  if (node_slot >= proxy_by_node_.size()) {
    proxy_by_node_.resize(node_slot + 1, 0);
  }
  proxy_by_node_[node_slot] = proxy.value();
  return proxy;
}

Result<ObjectId> Runtime::AllocManagedObject(ObjectKind kind) {
  const ObjectId obj = heap_.Alloc(kind);
  auto ref = vm_.AddGlobalRef(obj);
  if (!ref.ok()) {
    heap_.Free(obj);
    return ref.status();
  }
  heap_.SetManagedRef(obj, ref.value());
  return obj;
}

std::size_t Runtime::CollectGarbage() {
  if (aborted()) return 0;
  ++gc_runs_;
  const TimeUs gc_start = clock_->NowUs();
  clock_->AdvanceUs(gc_pause_us);
  std::size_t released = 0;
  std::vector<NodeId> collected_proxies;
  // Iterate to a fixed point over the *pending* candidate transitions:
  // freeing an object can drop holds on others in richer object graphs, and
  // each such transition re-enters the candidate list. With no pending
  // transitions the sweep is O(1) — the common between-transactions case.
  for (;;) {
    heap_.TakeUnheldCandidates(&gc_candidates_);
    if (gc_candidates_.empty()) break;
    std::size_t freed_this_round = 0;
    for (ObjectId obj : gc_candidates_) {
      const HeapIndirectRef ref = heap_.ManagedRef(obj);
      if (ref == kHeapNullRef) {
        // Plain unreferenced object: just reclaim the heap slot.
        if (heap_.Kind(obj) == ObjectKind::kPlain) {
          heap_.Free(obj);
          ++freed_this_round;
        }
        continue;
      }
      vm_.DeleteGlobalRef(ref);
      if (const NodeId node = heap_.ProxyNode(obj); node.valid()) {
        collected_proxies.push_back(node);
        proxy_by_node_[static_cast<std::size_t>(node.value())] = 0;
      }
      if (const HeapIndirectRef weak = heap_.WeakRef(obj);
          weak != kHeapNullRef) {
        vm_.DeleteWeakGlobalRef(weak);
      }
      heap_.Free(obj);
      ++released;
      ++freed_this_round;
    }
    if (freed_this_round == 0) break;
  }
  if (proxy_collect_handler_) {
    for (NodeId node : collected_proxies) proxy_collect_handler_(node);
  }
  JGRE_TRACE(config_.obs.bus, obs::Category::kGc,
             obs::MakeEvent(obs::Category::kGc, obs::Label::kGcRun, gc_start,
                            config_.obs.pid, config_.obs.uid,
                            static_cast<std::int64_t>(released),
                            static_cast<std::int64_t>(vm_.GlobalRefCount()),
                            gc_pause_us));
  JGRE_LOG(kDebug, "art") << config_.name << ": GC released " << released
                          << " global refs, " << vm_.GlobalRefCount()
                          << " remain";
  return released;
}

void Runtime::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x52544D32);  // "RTM2": arena-backed heap, derived proxy cache
  heap_.SaveState(out);
  vm_.SaveState(out);
  locals_.SaveState(out);
  out.I64(local_frame_depth_);
  out.I64(gc_runs_);
  out.U64(gc_pause_us);
}

void Runtime::RestoreState(snapshot::Deserializer& in) {
  in.Marker(0x52544D32);
  heap_.RestoreState(in);
  vm_.RestoreState(in);
  locals_.RestoreState(in);
  local_frame_depth_ = static_cast<int>(in.I64());
  gc_runs_ = in.I64();
  gc_pause_us = in.U64();
  // What the image does not carry goes back to its constructor value, so a
  // runtime restored in place equals a fresh one: the binder driver re-hooks
  // the pids its image hooked, and a scenario that watches the weak table
  // turns its events back on.
  proxy_collect_handler_ = nullptr;
  vm_.SetWeakEventEmission(false);
  snapshot::ReleaseIfOversized(gc_candidates_, heap_.LiveCount());
  // The proxy cache is derived state: rebuild it from the heap's node
  // column (live BinderProxy objects attached to a node).
  proxy_by_node_.clear();
  heap_.ForEachLive([this, &in](ObjectId obj) {
    const NodeId node = heap_.ProxyNode(obj);
    if (!node.valid()) return;
    // A node id names a record of the binder driver's node table, which
    // follows the kernel section in the stream: an id past the bytes left
    // cannot be real and must not size the cache.
    if (!in.NeedRecords(static_cast<std::uint64_t>(node.value()), 1)) return;
    const std::size_t slot = static_cast<std::size_t>(node.value());
    if (slot >= proxy_by_node_.size()) proxy_by_node_.resize(slot + 1, 0);
    proxy_by_node_[slot] = obj.value();
  });
  if (proxy_by_node_.capacity() > 2 * proxy_by_node_.size()) {
    proxy_by_node_.shrink_to_fit();
  }
}

}  // namespace jgre::rt
