#include "services/notification_service.h"

#include "common/log.h"

namespace jgre::services {

namespace {
// enqueueToast walks the queue (package counting + insertion); its linear
// growth plus a ~2 ms base makes it the slowest attack in Fig 3 (~1800 s).
constexpr CostProfile kEnqueueToastCost{2000, 5.80, 900};
constexpr CostProfile kCancelToastCost{400, 0.40, 200};
constexpr CostProfile kNotifyCost{900, 0.10, 400};
}  // namespace

NotificationService::NotificationService(SystemContext* sys)
    : SystemService(sys, kName, kDescriptor),
      callbacks_(sys->driver, sys->system_server_pid,
                 "notification.ToastCallbacks") {}

void NotificationService::ReleaseRecord(const ToastRecord& record) {
  if (auto pkg = toasts_per_pkg_.find(record.pkg);
      pkg != toasts_per_pkg_.end() && --pkg->second <= 0) {
    toasts_per_pkg_.erase(pkg);
  }
  auto it = records_per_node_.find(record.callback_node);
  if (it == records_per_node_.end()) return;
  if (--it->second <= 0) {
    records_per_node_.erase(it);
    callbacks_.Unregister(record.callback_node);
  }
}

void NotificationService::DrainShownToasts(const binder::CallContext& ctx) {
  // Toasts display sequentially: the head of the queue is "on screen" and is
  // retired after kToastDisplayUs, then the next one is shown.
  const TimeUs now = ctx.clock->NowUs();
  while (!toast_queue_.empty() &&
         now >= current_toast_shown_since_us_ + kToastDisplayUs) {
    ReleaseRecord(toast_queue_.front());
    toast_queue_.pop_front();
    current_toast_shown_since_us_ += kToastDisplayUs;
  }
  if (toast_queue_.empty()) current_toast_shown_since_us_ = now;
}

void NotificationService::SaveState(snapshot::Serializer& out) const {
  SystemService::SaveState(out);
  callbacks_.SaveState(out);
  out.U64(toast_queue_.size());
  for (const ToastRecord& record : toast_queue_) {  // deque: display order
    out.Str(record.pkg);
    out.I64(record.callback_node.value());
  }
  snapshot::SaveUnorderedMap(out, records_per_node_,
                             [](snapshot::Serializer& s, NodeId node, int n) {
                               s.I64(node.value());
                               s.I64(n);
                             });
  out.U64(current_toast_shown_since_us_);
  snapshot::SaveUnorderedMap(
      out, notifications_per_pkg_,
      [](snapshot::Serializer& s, const std::string& pkg, int n) {
        s.Str(pkg);
        s.I64(n);
      });
}

void NotificationService::RestoreState(snapshot::Deserializer& in) {
  SystemService::RestoreState(in);
  callbacks_.RestoreState(in);
  toast_queue_.clear();
  toasts_per_pkg_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    ToastRecord record;
    record.pkg = in.Str();
    record.callback_node = NodeId{in.I64()};
    ++toasts_per_pkg_[record.pkg];
    toast_queue_.push_back(std::move(record));
  }
  records_per_node_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    const NodeId node{in.I64()};
    records_per_node_.emplace(node, static_cast<int>(in.I64()));
  }
  current_toast_shown_since_us_ = in.U64();
  notifications_per_pkg_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    std::string pkg = in.Str();
    notifications_per_pkg_.emplace(std::move(pkg),
                                   static_cast<int>(in.I64()));
  }
}

Status NotificationService::OnTransact(std::uint32_t code,
                                       const binder::Parcel& data,
                                       binder::Parcel* reply,
                                       const binder::CallContext& ctx) {
  JGRE_RETURN_IF_ERROR(data.EnforceInterface(kDescriptor));
  switch (code) {
    case TRANSACTION_enqueueToast: {
      Charge(ctx, kEnqueueToastCost, toast_queue_.size());
      DrainShownToasts(ctx);
      auto pkg = data.ReadString();
      if (!pkg.ok()) return pkg.status();
      auto callback = data.ReadStrongBinder(ctx);  // ITransientNotification
      if (!callback.ok()) return callback.status();
      auto duration = data.ReadInt32();
      if (!duration.ok()) return duration.status();
      if (!callback.value().valid()) {
        return InvalidArgument("enqueueToast: null callback");
      }
      // THE FLAW (Code-Snippet 3): `pkg` is caller-supplied; passing
      // "android" marks the toast as a system toast and skips the cap. A
      // correct implementation would verify pkg against the calling uid.
      const bool is_system_toast = ctx.calling_uid == kSystemUid ||
                                   ctx.calling_uid == kRootUid ||
                                   pkg.value() == "android";
      int& count = toasts_per_pkg_[pkg.value()];
      if (!is_system_toast) {
        if (count >= kMaxPackageNotifications) {
          JGRE_LOG(kWarning, "NotificationService")
              << "Package has already posted " << count
              << " toasts. Not showing more. Package=" << pkg.value();
          return LimitExceeded("too many toasts for package");
        }
      }
      if (toast_queue_.empty()) {
        current_toast_shown_since_us_ = ctx.clock->NowUs();
      }
      callbacks_.Register(callback.value());  // no-op if node already known
      ++records_per_node_[callback.value().node];
      ++count;
      toast_queue_.push_back(ToastRecord{pkg.value(), callback.value().node});
      return Status::Ok();
    }
    case TRANSACTION_cancelToast: {
      Charge(ctx, kCancelToastCost, toast_queue_.size());
      DrainShownToasts(ctx);
      auto pkg = data.ReadString();
      if (!pkg.ok()) return pkg.status();
      auto callback = data.ReadStrongBinder(ctx);
      if (!callback.ok()) return callback.status();
      if (!callback.value().valid()) {
        return InvalidArgument("cancelToast: null callback");
      }
      for (auto it = toast_queue_.begin(); it != toast_queue_.end(); ++it) {
        if (it->callback_node == callback.value().node) {
          ReleaseRecord(*it);
          toast_queue_.erase(it);
          break;
        }
      }
      return Status::Ok();
    }
    case TRANSACTION_enqueueNotificationWithTag: {
      // Correctly capped per package: the non-toast path is NOT vulnerable.
      Charge(ctx, kNotifyCost, notifications_per_pkg_.size());
      auto pkg = CallingPackage(ctx);
      const std::string key = pkg.ok() ? pkg.value() : "unknown";
      if (notifications_per_pkg_[key] >= kMaxPackageNotifications) {
        return LimitExceeded("too many notifications for package");
      }
      ++notifications_per_pkg_[key];
      return Status::Ok();
    }
    case TRANSACTION_cancelNotificationWithTag: {
      Charge(ctx, kNotifyCost, notifications_per_pkg_.size());
      auto pkg = CallingPackage(ctx);
      const std::string key = pkg.ok() ? pkg.value() : "unknown";
      if (notifications_per_pkg_[key] > 0) --notifications_per_pkg_[key];
      return Status::Ok();
    }
    default:
      return InvalidArgument("unknown notification transaction");
  }
}

}  // namespace jgre::services
