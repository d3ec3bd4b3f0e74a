#include "services/weak_watch_service.h"

#include "binder/parcel.h"
#include "runtime/runtime.h"

namespace jgre::services {

namespace {
// Map insert plus one weak-table slot: cheap, like any listener bookkeeping.
constexpr DurationUs kWatchCostUs = 220;
}  // namespace

Status WeakWatchService::OnTransact(std::uint32_t code,
                                    const binder::Parcel& data,
                                    binder::Parcel* reply,
                                    const binder::CallContext& ctx) {
  (void)reply;
  JGRE_RETURN_IF_ERROR(data.EnforceInterface(kDescriptor));
  if (ctx.clock != nullptr) ctx.clock->AdvanceUs(kWatchCostUs);
  switch (code) {
    case TRANSACTION_watchWeak: {
      auto target = data.ReadStrongBinder(ctx);
      if (!target.ok()) return target.status();
      const binder::StrongBinder& b = target.value();
      if (!b.valid() || !b.java_obj.valid() || ctx.runtime == nullptr) {
        return Status::Ok();  // same-process or null binder: nothing to pin
      }
      if (refs_.count(b.node) > 0) return Status::Ok();  // already watched
      auto ref = ctx.runtime->vm().AddWeakGlobalRef(b.java_obj);
      if (!ref.ok()) return ref.status();
      refs_[b.node] = ref.value();
      ++total_watched_;
      return Status::Ok();
    }
    case TRANSACTION_unwatchWeak: {
      auto target = data.ReadStrongBinder(ctx);
      if (!target.ok()) return target.status();
      const binder::StrongBinder& b = target.value();
      auto it = b.valid() ? refs_.find(b.node) : refs_.end();
      if (it == refs_.end() || ctx.runtime == nullptr) return Status::Ok();
      ctx.runtime->vm().DeleteWeakGlobalRef(it->second);
      refs_.erase(it);
      return Status::Ok();
    }
    default:
      return InvalidArgument("unknown weakwatch transaction");
  }
}

}  // namespace jgre::services
