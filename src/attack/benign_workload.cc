#include "attack/benign_workload.h"

#include "common/strings.h"
#include "services/audio_service.h"
#include "services/clipboard_service.h"
#include "services/misc_system_services.h"
#include "services/notification_service.h"
#include "services/package_manager.h"
#include "services/telephony_registry_service.h"
#include "services/wifi_service.h"

namespace jgre::attack {

namespace sv = jgre::services;

BenignWorkload::BenignWorkload(core::AndroidSystem* system, Options options)
    : system_(system), options_(options), rng_(options.seed) {}

void BenignWorkload::InstallAll() {
  packages_.clear();
  apps_.clear();
  behaviors_.clear();
  for (int i = 0; i < options_.app_count; ++i) {
    const std::string package =
        StrCat(options_.package_prefix, StrFormat("%03d", i));
    std::set<std::string> permissions;
    AppBehavior behavior;
    behavior.uses_clipboard = rng_.Chance(0.35);
    behavior.uses_content_observer = rng_.Chance(0.5);
    behavior.uses_toasts = rng_.Chance(0.4);
    behavior.uses_audio_queries = rng_.Chance(0.6);
    if (rng_.Chance(0.25)) {
      behavior.uses_wifi_lock = true;
      permissions.insert(sv::perms::kWakeLock);
    }
    if (rng_.Chance(0.2)) {
      behavior.uses_telephony = true;
      permissions.insert(sv::perms::kReadPhoneState);
    }
    services::AppProcess* app = system_->InstallApp(package, permissions);
    // Installed-but-not-yet-used apps idle in the cached band; the monkey
    // foregrounds them one at a time. (Without this, 100 unkillable
    // foreground apps would over-commit memory, which a real device never
    // allows.)
    system_->kernel().SetOomScoreAdj(
        app->pid(),
        os::kCachedAppMinAdj + static_cast<int>(rng_.UniformU64(7)));
    packages_.push_back(package);
    apps_.push_back(app);
    behaviors_.push_back(std::move(behavior));
  }
}

void BenignWorkload::EnsureRegistrations(services::AppProcess* app,
                                         AppBehavior& behavior) {
  // A new process incarnation registers its long-lived listeners once and
  // reuses the same binder objects afterwards — the benign pattern the
  // sifter's rules codify.
  if (behavior.registered_for_pid == app->pid()) return;
  behavior.registered_for_pid = app->pid();
  if (behavior.uses_content_observer) {
    behavior.content_observer = app->NewBinder("IContentObserver");
    auto content = app->GetService(sv::ContentService::kName,
                                   sv::ContentService::kDescriptor);
    if (content.ok()) {
      (void)content.value().Call(
          sv::ContentService::TRANSACTION_registerContentObserver,
          [&](binder::Parcel& p) {
            p.WriteString(StrCat("content://", app->package()));
            p.WriteBool(false);
            p.WriteStrongBinder(behavior.content_observer);
          });
    }
  }
  if (behavior.uses_telephony) {
    behavior.phone_state_listener = app->NewBinder("IPhoneStateListener");
    auto registry =
        app->GetService(sv::TelephonyRegistryService::kName,
                        sv::TelephonyRegistryService::kDescriptor);
    if (registry.ok()) {
      (void)registry.value().Call(
          sv::TelephonyRegistryService::TRANSACTION_listen,
          [&](binder::Parcel& p) {
            p.WriteString(app->package());
            p.WriteStrongBinder(behavior.phone_state_listener);
            p.WriteInt32(0x10);
          });
    }
  }
}

void BenignWorkload::Interact(services::AppProcess* app,
                              AppBehavior& behavior) {
  EnsureRegistrations(app, behavior);
  if (behavior.uses_audio_queries) {
    auto audio = app->GetService(sv::AudioService::kName,
                                 sv::AudioService::kDescriptor);
    if (audio.ok()) {
      (void)audio.value().Call(sv::AudioService::TRANSACTION_getStreamVolume,
                               [](binder::Parcel& p) { p.WriteInt32(3); });
    }
  }
  if (behavior.uses_clipboard && rng_.Chance(0.3)) {
    auto clipboard = app->GetService(sv::ClipboardService::kName,
                                     sv::ClipboardService::kDescriptor);
    if (clipboard.ok()) {
      (void)clipboard.value().Call(
          sv::ClipboardService::TRANSACTION_hasPrimaryClip, nullptr);
    }
  }
  if (behavior.uses_toasts && rng_.Chance(0.1)) {
    auto notification = app->GetService(sv::NotificationService::kName,
                                        sv::NotificationService::kDescriptor);
    if (notification.ok()) {
      auto toast_callback = app->NewBinder("ITransientNotification");
      (void)notification.value().Call(
          sv::NotificationService::TRANSACTION_enqueueToast,
          [&](binder::Parcel& p) {
            p.WriteString(app->package());  // honest package name
            p.WriteStrongBinder(toast_callback);
            p.WriteInt32(0);
          });
    }
  }
  if (behavior.uses_wifi_lock && rng_.Chance(0.15)) {
    // Acquire-then-release through the service (paired, so no growth).
    auto wifi =
        app->GetService(sv::WifiService::kName, sv::WifiService::kDescriptor);
    if (wifi.ok()) {
      auto lock = app->NewBinder("WifiLock");
      (void)wifi.value().Call(sv::WifiService::TRANSACTION_acquireWifiLock,
                              [&](binder::Parcel& p) {
                                p.WriteStrongBinder(lock);
                                p.WriteInt32(1);
                                p.WriteString(app->package());
                              });
      (void)wifi.value().Call(sv::WifiService::TRANSACTION_releaseWifiLock,
                              [&](binder::Parcel& p) {
                                p.WriteStrongBinder(lock);
                              });
    }
  }
}

void BenignWorkload::RunMonkeySession(
    const std::function<void(TimeUs)>& sampler, DurationUs sample_period_us) {
  TimeUs next_sample = system_->clock().NowUs();
  for (std::size_t i = 0; i < packages_.size(); ++i) {
    services::AppProcess* app = LiveApp(i);  // monkey taps the icon
    if (app == nullptr) continue;
    // Foreground for two minutes of interactions.
    system_->kernel().SetOomScoreAdj(app->pid(), os::kForegroundAppAdj);
    const TimeUs fg_until =
        system_->clock().NowUs() + options_.per_app_foreground_us;
    while (system_->clock().NowUs() < fg_until) {
      if (!app->alive()) break;  // LMK got us mid-run; monkey moves on
      Interact(app, behaviors_[i]);
      system_->clock().AdvanceUs(options_.interaction_period_us);
      if (sampler && sample_period_us > 0 &&
          system_->clock().NowUs() >= next_sample) {
        sampler(system_->clock().NowUs());
        next_sample = system_->clock().NowUs() + sample_period_us;
      }
    }
    // HOME: the app drops to the cached band and becomes an LMK candidate.
    if (app->alive()) {
      system_->kernel().SetOomScoreAdj(
          app->pid(),
          os::kCachedAppMinAdj + static_cast<int>(rng_.UniformU64(7)));
      // Re-evaluate pressure now that another cached app exists.
      system_->kernel().SetProcessMemory(
          app->pid(), 38 * 1024 + static_cast<std::int64_t>(
                                      rng_.UniformU64(8 * 1024)));
    }
  }
}

services::AppProcess* BenignWorkload::LiveApp(std::size_t index) {
  services::AppProcess*& app = apps_[index];
  if (app == nullptr || !app->alive()) {
    app = system_->RelaunchApp(packages_[index]);
  }
  return app;
}

void BenignWorkload::InteractOnce(std::size_t index) {
  if (index >= packages_.size()) return;
  if (services::AppProcess* app = LiveApp(index); app != nullptr) {
    Interact(app, behaviors_[index]);
  }
}

void BenignWorkload::ChattyQueryLoop(services::AppProcess* app, int calls,
                                     DurationUs gap_us) {
  auto audio =
      app->GetService(sv::AudioService::kName, sv::AudioService::kDescriptor);
  if (!audio.ok()) return;
  for (int i = 0; i < calls && app->alive(); ++i) {
    (void)audio.value().Call(sv::AudioService::TRANSACTION_getStreamVolume,
                             [](binder::Parcel& p) { p.WriteInt32(3); });
    if (gap_us > 0) system_->clock().AdvanceUs(gap_us);
  }
}

}  // namespace jgre::attack
