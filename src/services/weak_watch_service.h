// WeakWatchService — an app-reachable interface that pins *weak* global
// references in its host process.
//
// The JGRE paper's 57 interfaces all leak strong JGRs; ART's weak-global
// table shares the same capacity and the same abort-on-overflow behavior
// (art::JavaVMExt::AddWeakGlobalRef), but no monitor watches it — the §V
// defense thresholds only the strong table. WeakWatchService models the
// pattern that exposes it: a service that tracks client objects "without
// keeping them alive" via NewWeakGlobalRef (the textbook use of weak
// globals) and trusts clients to unwatch. An attacker who watches fresh
// binders and never (or only half) unwatches grows the weak table invisibly
// to the alarm — the weakref_churn attack strategy.
//
// Never registered at boot: the weakref_churn strategy adds it dynamically
// (MakeBinder + ServiceManager::AddService) so every pinned census stays
// untouched.
#ifndef JGRE_SERVICES_WEAK_WATCH_SERVICE_H_
#define JGRE_SERVICES_WEAK_WATCH_SERVICE_H_

#include <string>
#include <unordered_map>

#include "binder/ibinder.h"
#include "common/types.h"
#include "runtime/indirect_reference_table.h"

namespace jgre::services {

class WeakWatchService : public binder::BBinder {
 public:
  static constexpr const char* kName = "weakwatch";
  static constexpr const char* kDescriptor =
      "com.android.internal.arms.IWeakWatch";

  enum Code : std::uint32_t {
    TRANSACTION_watchWeak = 1,    // binder -> NewWeakGlobalRef, no cap
    TRANSACTION_unwatchWeak = 2,  // binder -> DeleteWeakGlobalRef
  };

  WeakWatchService() : binder::BBinder(kDescriptor) {}

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::size_t watched() const { return refs_.size(); }
  std::int64_t total_watched() const { return total_watched_; }

 private:
  // node -> the explicit weak global this service holds for it.
  std::unordered_map<NodeId, rt::IndirectRef> refs_;
  std::int64_t total_watched_ = 0;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_WEAK_WATCH_SERVICE_H_
