// NotificationManagerService — the flawed per-process constraint (§IV.C.2).
//
// `enqueueToast` limits each package to MAX_PACKAGE_NOTIFICATIONS queued
// toasts *unless* the toast is a "system toast" — decided by
// `isCallerSystem() || "android".equals(pkg)` where `pkg` is a
// caller-supplied string (Code-Snippet 3). A zero-permission app that passes
// "android" as its package name bypasses the cap and can queue toasts until
// the shared JGR table overflows. Table III's one "No" row.
#ifndef JGRE_SERVICES_NOTIFICATION_SERVICE_H_
#define JGRE_SERVICES_NOTIFICATION_SERVICE_H_

#include <deque>
#include <string>
#include <unordered_map>

#include "services/system_service.h"

namespace jgre::services {

class NotificationService : public SystemService {
 public:
  static constexpr const char* kName = "notification";
  static constexpr const char* kDescriptor =
      "android.app.INotificationManager";

  // NotificationManagerService.MAX_PACKAGE_NOTIFICATIONS.
  static constexpr int kMaxPackageNotifications = 50;
  // LONG_DELAY: a shown toast stays up 3.5 s before the next one is shown.
  static constexpr DurationUs kToastDisplayUs = 3'500'000;

  enum Code : std::uint32_t {
    TRANSACTION_enqueueToast = 1,
    TRANSACTION_cancelToast = 2,
    TRANSACTION_enqueueNotificationWithTag = 3,
    TRANSACTION_cancelNotificationWithTag = 4,
  };

  explicit NotificationService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::size_t ToastQueueSize() const { return toast_queue_.size(); }
  std::size_t RetainedCallbackCount() const {
    return callbacks_.RegisteredCount();
  }

  void SaveState(snapshot::Serializer& out) const override;
  void RestoreState(snapshot::Deserializer& in) override;

 private:
  struct ToastRecord {
    std::string pkg;
    NodeId callback_node;
  };

  // Pops shown/expired toasts off the queue front (toasts display one at a
  // time); releases callbacks whose last record left the queue.
  void DrainShownToasts(const binder::CallContext& ctx);
  // Bookkeeping for a record leaving the queue (drained or cancelled).
  void ReleaseRecord(const ToastRecord& record);

  binder::RemoteCallbackList callbacks_;
  std::deque<ToastRecord> toast_queue_;
  std::unordered_map<NodeId, int> records_per_node_;
  // Queued records per package: the cap's count without a queue scan.
  // Derived from toast_queue_, so it is rebuilt on restore, not saved.
  std::unordered_map<std::string, int> toasts_per_pkg_;
  TimeUs current_toast_shown_since_us_ = 0;
  std::unordered_map<std::string, int> notifications_per_pkg_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_NOTIFICATION_SERVICE_H_
