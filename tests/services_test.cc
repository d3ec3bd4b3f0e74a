// Framework-service behaviour tests: retention patterns, permissions, caps,
// the enqueueToast flaw, helper-class guards, and registry-base semantics.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/android_system.h"
#include "services/clipboard_service.h"
#include "services/misc_system_services.h"
#include "services/net_media_services.h"
#include "services/notification_service.h"
#include "services/registry_service.h"
#include "services/safe_service.h"
#include "services/service_helpers.h"
#include "services/telephony_registry_service.h"
#include "services/ui_services.h"
#include "services/wifi_service.h"
#include "snapshot/snapshot.h"

namespace jgre {
namespace {

namespace sv = jgre::services;

class ServicesTest : public ::testing::Test {
 protected:
  ServicesTest() {
    system_.Boot();
    app_ = system_.InstallApp(
        "com.test.app",
        {sv::perms::kWakeLock, sv::perms::kReadPhoneState,
         sv::perms::kChangeWifiMulticastState});
  }

  sv::IpcClient Client(const char* name, const char* descriptor) {
    auto client = app_->GetService(name, descriptor);
    EXPECT_TRUE(client.ok());
    return client.value();
  }

  std::size_t SystemJgr() { return system_.SystemServerJgrCount(); }

  core::AndroidSystem system_;
  sv::AppProcess* app_;
};

TEST_F(ServicesTest, ClipboardListenerRegistrationRetainsAndBroadcasts) {
  auto clipboard =
      Client(sv::ClipboardService::kName, sv::ClipboardService::kDescriptor);
  auto* service = system_.Service<sv::ClipboardService>();
  ASSERT_NE(service, nullptr);
  auto listener = app_->NewBinder("listener");
  ASSERT_TRUE(clipboard
                  .Call(sv::ClipboardService::
                            TRANSACTION_addPrimaryClipChangedListener,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(listener);
                        })
                  .ok());
  EXPECT_EQ(service->ListenerCount(), 1u);
  // Re-registering the same binder does not duplicate.
  ASSERT_TRUE(clipboard
                  .Call(sv::ClipboardService::
                            TRANSACTION_addPrimaryClipChangedListener,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(listener);
                        })
                  .ok());
  EXPECT_EQ(service->ListenerCount(), 1u);
  ASSERT_TRUE(clipboard
                  .Call(sv::ClipboardService::TRANSACTION_setPrimaryClip,
                        [](binder::Parcel& p) { p.WriteString("clip!"); })
                  .ok());
  binder::Parcel reply;
  ASSERT_TRUE(
      clipboard.Call(sv::ClipboardService::TRANSACTION_getPrimaryClip, &reply)
          .ok());
  EXPECT_EQ(reply.ReadString().value(), "clip!");
  ASSERT_TRUE(clipboard
                  .Call(sv::ClipboardService::
                            TRANSACTION_removePrimaryClipChangedListener,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(listener);
                        })
                  .ok());
  EXPECT_EQ(service->ListenerCount(), 0u);
}

TEST_F(ServicesTest, WifiLockRequiresWakeLockPermission) {
  auto* no_perm_app = system_.InstallApp("com.noperm.app");
  auto wifi = no_perm_app->GetService(sv::WifiService::kName,
                                      sv::WifiService::kDescriptor);
  ASSERT_TRUE(wifi.ok());
  Status status = wifi.value().Call(
      sv::WifiService::TRANSACTION_acquireWifiLock, [&](binder::Parcel& p) {
        p.WriteStrongBinder(no_perm_app->NewBinder("lock"));
        p.WriteInt32(1);
        p.WriteString("tag");
      });
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(system_.Service<sv::WifiService>()->WifiLockCount(), 0u);
}

TEST_F(ServicesTest, WifiLocksAcquireAndReleaseBalance) {
  auto wifi = Client(sv::WifiService::kName, sv::WifiService::kDescriptor);
  auto* service = system_.Service<sv::WifiService>();
  auto lock = app_->NewBinder("lock");
  ASSERT_TRUE(wifi.Call(sv::WifiService::TRANSACTION_acquireWifiLock,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(lock);
                          p.WriteInt32(1);
                          p.WriteString("tag");
                        })
                  .ok());
  EXPECT_EQ(service->WifiLockCount(), 1u);
  ASSERT_TRUE(wifi.Call(sv::WifiService::TRANSACTION_releaseWifiLock,
                        [&](binder::Parcel& p) { p.WriteStrongBinder(lock); })
                  .ok());
  EXPECT_EQ(service->WifiLockCount(), 0u);
}

TEST_F(ServicesTest, ToastCapHoldsForHonestCallers) {
  auto notification = Client(sv::NotificationService::kName,
                             sv::NotificationService::kDescriptor);
  int accepted = 0;
  for (int i = 0; i < 80; ++i) {
    Status status = notification.Call(
        sv::NotificationService::TRANSACTION_enqueueToast,
        [&](binder::Parcel& p) {
          p.WriteString(app_->package());
          p.WriteStrongBinder(app_->NewBinder("toast"));
          p.WriteInt32(1);
        });
    if (status.ok()) ++accepted;
  }
  EXPECT_EQ(accepted, sv::NotificationService::kMaxPackageNotifications);
}

TEST_F(ServicesTest, ToastCapBypassedByAndroidPackageSpoof) {
  auto notification = Client(sv::NotificationService::kName,
                             sv::NotificationService::kDescriptor);
  int accepted = 0;
  for (int i = 0; i < 80; ++i) {
    Status status = notification.Call(
        sv::NotificationService::TRANSACTION_enqueueToast,
        [&](binder::Parcel& p) {
          p.WriteString("android");  // Code-Snippet 3
          p.WriteStrongBinder(app_->NewBinder("toast"));
          p.WriteInt32(1);
        });
    if (status.ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 80);
  EXPECT_EQ(system_.Service<sv::NotificationService>()->ToastQueueSize(), 80u);
}

TEST_F(ServicesTest, ToastQueueDrainsOverTime) {
  auto notification = Client(sv::NotificationService::kName,
                             sv::NotificationService::kDescriptor);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(notification
                    .Call(sv::NotificationService::TRANSACTION_enqueueToast,
                          [&](binder::Parcel& p) {
                            p.WriteString(app_->package());
                            p.WriteStrongBinder(app_->NewBinder("toast"));
                            p.WriteInt32(1);
                          })
                    .ok());
  }
  auto* service = system_.Service<sv::NotificationService>();
  EXPECT_EQ(service->ToastQueueSize(), 10u);
  // Toasts display sequentially for 3.5 s each; advance past five of them.
  system_.clock().AdvanceUs(5 * sv::NotificationService::kToastDisplayUs +
                            1000);
  ASSERT_TRUE(notification
                  .Call(sv::NotificationService::TRANSACTION_enqueueToast,
                        [&](binder::Parcel& p) {
                          p.WriteString(app_->package());
                          p.WriteStrongBinder(app_->NewBinder("toast"));
                          p.WriteInt32(1);
                        })
                  .ok());
  EXPECT_LE(service->ToastQueueSize(), 6u);
}

// The cap counts a package's queued toasts: it refuses exactly the 51st, a
// toast leaving the queue (drained after its display time, or cancelled)
// frees one slot, and the count is rebuilt from the queue on restore.
TEST_F(ServicesTest, ToastCapSlotsFreeOnDrainAndCancelAndSurviveRestore) {
  using Notification = sv::NotificationService;
  const auto enqueue = [](sv::AppProcess* app,
                          const std::shared_ptr<binder::BBinder>& toast) {
    auto client =
        app->GetService(Notification::kName, Notification::kDescriptor);
    EXPECT_TRUE(client.ok());
    return client.value().Call(Notification::TRANSACTION_enqueueToast,
                               [&](binder::Parcel& p) {
                                 p.WriteString(app->package());
                                 p.WriteStrongBinder(toast);
                                 p.WriteInt32(1);
                               });
  };
  std::vector<std::shared_ptr<binder::BBinder>> toasts;
  for (int i = 0; i < Notification::kMaxPackageNotifications; ++i) {
    toasts.push_back(app_->NewBinder("toast"));
    ASSERT_TRUE(enqueue(app_, toasts.back()).ok()) << "toast " << i + 1;
  }
  EXPECT_EQ(enqueue(app_, app_->NewBinder("toast")).code(),
            StatusCode::kLimitExceeded);

  // cancelToast frees the cancelled toast's slot, and only that one.
  auto notification = Client(Notification::kName, Notification::kDescriptor);
  ASSERT_TRUE(notification
                  .Call(Notification::TRANSACTION_cancelToast,
                        [&](binder::Parcel& p) {
                          p.WriteString(app_->package());
                          p.WriteStrongBinder(toasts[7]);
                        })
                  .ok());
  EXPECT_TRUE(enqueue(app_, app_->NewBinder("toast")).ok());
  EXPECT_FALSE(enqueue(app_, app_->NewBinder("toast")).ok());

  // The head toast's display time passes: the next enqueue drains it.
  system_.clock().AdvanceUs(Notification::kToastDisplayUs);
  EXPECT_TRUE(enqueue(app_, app_->NewBinder("toast")).ok());
  EXPECT_FALSE(enqueue(app_, app_->NewBinder("toast")).ok());
  auto* service = system_.Service<Notification>();
  EXPECT_EQ(service->ToastQueueSize(),
            static_cast<std::size_t>(Notification::kMaxPackageNotifications));

  auto captured = snapshot::SystemSnapshot::Capture(system_);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  core::AndroidSystem restored(system_.config());
  restored.Boot();
  ASSERT_TRUE(captured.value().RestoreInto(&restored).ok());
  sv::AppProcess* app = restored.FindApp(app_->package());
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(enqueue(app, app->NewBinder("toast")).code(),
            StatusCode::kLimitExceeded);
  restored.clock().AdvanceUs(Notification::kToastDisplayUs);
  EXPECT_TRUE(enqueue(app, app->NewBinder("toast")).ok());
}

TEST_F(ServicesTest, TelephonyListenReplacesRecordForSameBinder) {
  auto registry = Client(sv::TelephonyRegistryService::kName,
                         sv::TelephonyRegistryService::kDescriptor);
  auto* service = system_.Service<sv::TelephonyRegistryService>();
  auto listener = app_->NewBinder("IPhoneStateListener");
  for (int events : {0x10, 0x20, 0x40}) {
    ASSERT_TRUE(registry
                    .Call(sv::TelephonyRegistryService::TRANSACTION_listen,
                          [&](binder::Parcel& p) {
                            p.WriteString(app_->package());
                            p.WriteStrongBinder(listener);
                            p.WriteInt32(events);
                          })
                    .ok());
  }
  EXPECT_EQ(service->RecordCount(), 1u);  // same binder: updated in place
  // LISTEN_NONE removes the record entirely.
  ASSERT_TRUE(registry
                  .Call(sv::TelephonyRegistryService::TRANSACTION_listen,
                        [&](binder::Parcel& p) {
                          p.WriteString(app_->package());
                          p.WriteStrongBinder(listener);
                          p.WriteInt32(0);
                        })
                  .ok());
  EXPECT_EQ(service->RecordCount(), 0u);
}

TEST_F(ServicesTest, TelephonyRequiresReadPhoneState) {
  auto* no_perm_app = system_.InstallApp("com.noperm2.app");
  auto registry =
      no_perm_app->GetService(sv::TelephonyRegistryService::kName,
                              sv::TelephonyRegistryService::kDescriptor);
  ASSERT_TRUE(registry.ok());
  Status status = registry.value().Call(
      sv::TelephonyRegistryService::TRANSACTION_listen,
      [&](binder::Parcel& p) {
        p.WriteString(no_perm_app->package());
        p.WriteStrongBinder(no_perm_app->NewBinder("l"));
        p.WriteInt32(0x10);
      });
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST_F(ServicesTest, DisplayPerProcessConstraintRejectsSecondRegistration) {
  auto display =
      Client(sv::DisplayService::kName, sv::DisplayService::kDescriptor);
  ASSERT_TRUE(display
                  .Call(sv::DisplayService::TRANSACTION_registerCallback,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(app_->NewBinder("cb1"));
                        })
                  .ok());
  Status second = display.Call(
      sv::DisplayService::TRANSACTION_registerCallback,
      [&](binder::Parcel& p) { p.WriteStrongBinder(app_->NewBinder("cb2")); });
  EXPECT_EQ(second.code(), StatusCode::kLimitExceeded);
  // A different process may still register.
  auto* other = system_.InstallApp("com.other.app");
  auto display2 =
      other->GetService(sv::DisplayService::kName,
                        sv::DisplayService::kDescriptor);
  ASSERT_TRUE(display2.ok());
  EXPECT_TRUE(display2.value()
                  .Call(sv::DisplayService::TRANSACTION_registerCallback,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(other->NewBinder("cb"));
                        })
                  .ok());
}

TEST_F(ServicesTest, SessionInterfacesMintServerSideBinder) {
  auto midi = Client(sv::MidiService::kName, sv::MidiService::kDescriptor);
  auto* service = system_.Service<sv::MidiService>();
  system_.CollectAllGarbage();
  const std::size_t before = SystemJgr();
  binder::Parcel reply;
  ASSERT_TRUE(midi.Call(sv::MidiService::TRANSACTION_registerDeviceServer,
                        [&](binder::Parcel& p) {
                          p.WriteStrongBinder(app_->NewBinder("server"));
                          p.WriteInt32(1);
                          p.WriteInt32(1);
                          p.WriteString("dev");
                        },
                        &reply)
                  .ok());
  // proxy + death recipient + session JavaBBinder = 3 retained JGRs.
  system_.CollectAllGarbage();
  EXPECT_EQ(SystemJgr(), before + 3);
  EXPECT_EQ(service->SessionCount(3), 1u);
  // Killing the client tears the session down.
  system_.StopApp("com.test.app");
  system_.CollectAllGarbage();
  EXPECT_EQ(service->SessionCount(3), 0u);
  EXPECT_EQ(SystemJgr(), before);
}

TEST_F(ServicesTest, SafeServiceTransientAndReplacePatternsDoNotGrow) {
  auto* safe = dynamic_cast<sv::GenericSafeService*>(
      system_.FindServiceObject("dropbox"));
  ASSERT_NE(safe, nullptr);
  auto client = Client("dropbox", safe->InterfaceDescriptor().c_str());
  system_.CollectAllGarbage();
  const std::size_t before = SystemJgr();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client
                    .Call(sv::GenericSafeService::TRANSACTION_oneShot,
                          [&](binder::Parcel& p) {
                            p.WriteStrongBinder(app_->NewBinder("transient"));
                          })
                    .ok());
    ASSERT_TRUE(client
                    .Call(sv::GenericSafeService::TRANSACTION_setCallback,
                          [&](binder::Parcel& p) {
                            p.WriteStrongBinder(app_->NewBinder("slot"));
                          })
                    .ok());
  }
  system_.CollectAllGarbage();
  // Transient binders all reclaimed; the slot holds exactly one (2 JGRs).
  EXPECT_LE(SystemJgr(), before + 2);
}

TEST_F(ServicesTest, HelperMultiplexingKeepsServerSideO1) {
  auto* service = system_.Service<sv::ClipboardService>();
  sv::ClipboardManager manager(app_);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(manager.AddPrimaryClipChangedListener().ok());
  }
  EXPECT_EQ(manager.listener_count(), 40);
  EXPECT_EQ(service->ListenerCount(), 1u);  // one shared transport
}

TEST_F(ServicesTest, WifiManagerCapsAtMaxActiveLocks) {
  sv::WifiManager manager(app_);
  std::vector<sv::WifiManager::WifiLock> locks;
  int acquired = 0, rejected = 0;
  for (int i = 0; i < 60; ++i) {
    auto lock = manager.CreateWifiLock("t" + std::to_string(i));
    Status status = lock.Acquire();
    if (status.ok()) {
      ++acquired;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kLimitExceeded);
      ++rejected;
    }
    locks.push_back(std::move(lock));
  }
  EXPECT_EQ(acquired, sv::WifiManager::kMaxActiveLocks);
  EXPECT_EQ(rejected, 10);
  // The helper rolled back the over-limit acquisitions server-side.
  EXPECT_EQ(system_.Service<sv::WifiService>()->WifiLockCount(), 50u);
}

TEST_F(ServicesTest, ActivityForceStopRequiresSystemUid) {
  auto activity =
      Client(sv::ActivityService::kName, sv::ActivityService::kDescriptor);
  Status status = activity.Call(
      sv::ActivityService::TRANSACTION_forceStopPackage,
      [&](binder::Parcel& p) { p.WriteString("com.other.app"); });
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST_F(ServicesTest, UnknownTransactionCodeRejected) {
  auto clipboard =
      Client(sv::ClipboardService::kName, sv::ClipboardService::kDescriptor);
  EXPECT_EQ(clipboard.Call(9999).code(), StatusCode::kInvalidArgument);
  auto midi = Client(sv::MidiService::kName, sv::MidiService::kDescriptor);
  EXPECT_EQ(midi.Call(9999).code(), StatusCode::kInvalidArgument);
}

TEST_F(ServicesTest, WrongInterfaceTokenRejected) {
  auto wifi = app_->GetService(sv::WifiService::kName, "wrong.Interface");
  ASSERT_TRUE(wifi.ok());
  EXPECT_EQ(wifi.value()
                .Call(sv::WifiService::TRANSACTION_getWifiEnabledState)
                .code(),
            StatusCode::kInvalidArgument);
}

// A registry service reads each declared argument where it lies in the
// parcel: strings and byte arrays are type-checked without a copy, and a
// call whose argument has the wrong type fails before anything is retained.
// A MethodSpec with more binder arguments than one call's storage holds is
// rejected when the service is built.
class ArgCheckService : public sv::RegistryServiceBase {
 public:
  static constexpr char kDescriptor[] = "com.test.IArgCheck";
  ArgCheckService(sv::SystemContext* sys, Pid host,
                  std::vector<sv::MethodSpec> methods)
      : RegistryServiceBase(sys, "argcheck", kDescriptor, host, {"callbacks"},
                            std::move(methods)) {}
};

TEST_F(ServicesTest, RegistryArgumentsAreTypeCheckedWhereTheyLie) {
  using sv::ArgKind;
  const std::vector<sv::MethodSpec> too_many_binders = {sv::MethodSpec{
      1, "registerMany", sv::MethodKind::kRegister,
      std::vector<ArgKind>(5, ArgKind::kBinder)}};
  EXPECT_THROW(ArgCheckService(&system_.context(), system_.system_server_pid(),
                               too_many_binders),
               std::invalid_argument);

  auto service = std::make_shared<ArgCheckService>(
      &system_.context(), system_.system_server_pid(),
      std::vector<sv::MethodSpec>{sv::MethodSpec{
          1, "register", sv::MethodKind::kRegister,
          {ArgKind::kString, ArgKind::kByteArray, ArgKind::kBinder}}});
  system_.driver().RegisterBinder(service, system_.system_server_pid());
  ASSERT_TRUE(
      system_.service_manager().AddService("argcheck", service, kSystemUid)
          .ok());
  const sv::IpcClient client = Client("argcheck", ArgCheckService::kDescriptor);
  const auto call = [&](const std::function<void(binder::Parcel&)>& args) {
    return client.Call(1, args);
  };
  const auto listener = app_->NewBinder("listener");
  const Status wrong_string = call([&](binder::Parcel& p) {
    p.WriteInt32(7);
    p.WriteByteArray(16);
    p.WriteStrongBinder(listener);
  });
  EXPECT_NE(wrong_string.message().find("parcel type confusion at index 1"),
            std::string::npos)
      << wrong_string.ToString();
  const Status wrong_bytes = call([&](binder::Parcel& p) {
    p.WriteString("name");
    p.WriteString("not bytes");
    p.WriteStrongBinder(listener);
  });
  EXPECT_NE(wrong_bytes.message().find("parcel type confusion at index 2"),
            std::string::npos)
      << wrong_bytes.ToString();
  EXPECT_EQ(service->RegistryCount(0), 0u);
  EXPECT_TRUE(call([&](binder::Parcel& p) {
                p.WriteString("name");
                p.WriteByteArray(16);
                p.WriteStrongBinder(listener);
              }).ok());
  EXPECT_EQ(service->RegistryCount(0), 1u);
}

}  // namespace
}  // namespace jgre
