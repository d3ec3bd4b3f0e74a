// AndroidSystem — the top-level facade: a booted Android 6.0.1 device.
//
// Owns the kernel, binder driver, service manager, package manager, the
// system_server process hosting all 104 system services, and the prebuilt app
// processes (Bluetooth, PicoTts). Provides app install/launch, the
// between-transactions pump (GC cadence, soft-reboot handling, defense
// extension), and soft-reboot semantics: when system_server's runtime aborts
// — the JGRE detonation — every service is torn down and re-registered by a
// fresh system_server, exactly like Android's zygote restart.
#ifndef JGRE_CORE_ANDROID_SYSTEM_H_
#define JGRE_CORE_ANDROID_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "binder/binder_driver.h"
#include "binder/service_manager.h"
#include "os/kernel.h"
#include "os/lmk.h"
#include "services/activity_service.h"
#include "services/app.h"
#include "services/app_services.h"
#include "services/audio_service.h"
#include "services/clipboard_service.h"
#include "services/location_service.h"
#include "services/misc_system_services.h"
#include "services/net_media_services.h"
#include "services/notification_service.h"
#include "services/package_manager.h"
#include "services/safe_service.h"
#include "services/system_service.h"
#include "services/telephony_registry_service.h"
#include "services/ui_services.h"
#include "services/wifi_service.h"

namespace jgre::core {

struct SystemConfig {
  std::uint64_t seed = 42;
  // system_server's baseline JGR footprint (classes, boot-time services):
  // Fig 4 shows 1,000–3,000 entries on a live device.
  std::size_t system_server_boot_class_refs = 1200;
  std::size_t app_boot_class_refs = 180;
  // system_server's JGR table capacity — the exhaustion ceiling. Stock AOSP
  // pins this at rt::kGlobalsMax; fleet specs vary it to model devices with
  // smaller (or patched, larger) tables.
  std::size_t system_server_max_jgr = rt::kGlobalsMax;
  // GC cadence applied between transactions (DDMS-style periodic GC).
  DurationUs gc_period_us = 2'000'000;
  // Stock Android runs 382 processes before any third-party app (§V, Obs 1);
  // 379 daemons + system_server + the two prebuilt app processes = 382.
  int baseline_native_processes = 379;
  std::int64_t total_ram_kb = 2 * 1024 * 1024;
  binder::BinderDriver::Config driver;
};

// Hash over every SystemConfig field but the seed, byte-stable across runs
// and machines. Checkpoints carry it, so a restore can refuse a system
// booted with another configuration.
std::uint64_t ConfigFingerprint(const SystemConfig& config);

class AndroidSystem {
 public:
  AndroidSystem();
  explicit AndroidSystem(SystemConfig config);
  ~AndroidSystem();

  AndroidSystem(const AndroidSystem&) = delete;
  AndroidSystem& operator=(const AndroidSystem&) = delete;

  // Boots the device: baseline processes, system_server with all system
  // services, prebuilt apps. Idempotent per instance.
  void Boot();

  // --- Accessors ------------------------------------------------------------

  os::Kernel& kernel() { return kernel_; }
  SimClock& clock() { return kernel_.clock(); }
  binder::BinderDriver& driver() { return *driver_; }
  binder::ServiceManager& service_manager() { return *service_manager_; }
  services::PackageManager& package_manager() { return package_manager_; }
  services::SystemContext& context() { return context_; }
  const SystemConfig& config() const { return config_; }

  Pid system_server_pid() const { return context_.system_server_pid; }
  rt::Runtime* system_runtime() { return context_.system_runtime(); }
  std::size_t SystemServerJgrCount();

  // The victim probes: `package` names an app-hosted victim, "" means
  // system_server. JgrCountOf reads 0 once an app victim is dead.
  // VictimDown is true once the system has soft-rebooted, or once the app
  // victim's process is gone.
  std::size_t JgrCountOf(const std::string& package);
  bool VictimDown(const std::string& package);

  // Typed service lookup for tests/benches, e.g. Service<ClipboardService>().
  template <typename T>
  T* Service() {
    for (auto& [name, service] : service_objects_) {
      if (T* typed = dynamic_cast<T*>(service.get()); typed != nullptr) {
        return typed;
      }
    }
    return nullptr;
  }
  services::SystemService* FindServiceObject(const std::string& name);

  // Iterates every registered service object (name, object) — used by the
  // code-model builder to derive the analysis corpus from the live system.
  void ForEachService(
      const std::function<void(const std::string&, services::SystemService*)>&
          fn);

  // --- Apps -----------------------------------------------------------------

  // Installs `package` (granting `permissions`) and launches its process.
  services::AppProcess* InstallApp(const std::string& package,
                                   const std::set<std::string>& permissions);
  services::AppProcess* InstallApp(const std::string& package);
  // Relaunches a package whose process was killed (same uid, new pid).
  services::AppProcess* RelaunchApp(const std::string& package);
  services::AppProcess* FindApp(const std::string& package);
  void StopApp(const std::string& package);

  // Prebuilt app processes (Table IV) and their hosted services.
  services::AppProcess* bluetooth_app() { return FindApp("com.android.bluetooth"); }
  services::AppProcess* pico_tts_app() { return FindApp("com.svox.pico"); }

  // --- Simulation pump ---------------------------------------------------------

  // Runs between top-level transactions (installed as the driver's
  // post-transact hook): periodic GC on all runtimes, dead-process reaping,
  // soft-reboot handling, and the defense extension if installed.
  void Pump();

  // Extension slot used by the JGRE defense (checks thresholds, runs the
  // defender). Invoked from Pump after housekeeping.
  void SetPumpExtension(std::function<void()> extension) {
    pump_extension_ = std::move(extension);
  }
  // Invoked after a soft reboot completes (defense re-attaches its monitor).
  void SetPostRebootHook(std::function<void()> hook) {
    post_reboot_hook_ = std::move(hook);
  }

  // Runs GC on every live runtime immediately.
  void CollectAllGarbage();

  // Keeps a dynamically installed app service object alive and findable via
  // FindServiceObject (used for Table V third-party services).
  void KeepServiceAlive(const std::string& name,
                        std::shared_ptr<services::SystemService> service) {
    service_objects_[name] = std::move(service);
  }

  std::int64_t soft_reboots() const { return soft_reboots_seen_; }

  // Checkpointing. SaveState captures the full simulated-device state in
  // module order (kernel → driver → service manager → package manager →
  // services → facade bookkeeping → apps). RestoreState runs on a Boot()ed
  // AndroidSystem with the SAME SystemConfig, whatever it ran since, as long
  // as it never soft-rebooted (that fails the stream): the boot
  // deterministically recreated all structural wiring (service objects, boot
  // binder nodes, death listeners, procfs, LMK), and restore drops what ran
  // since (post-boot binder nodes, processes and runtimes) and patches every
  // module's mutable state wholesale. The pump extension, post-reboot hook,
  // transact gate and bus subscriptions are wiring: they survive restore, so
  // whoever installed them (a defender, a mitigation stack, a probe) must
  // have removed them before the system is restored for someone else.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

 private:
  void BootSystemServer();
  void BootPrebuiltApps();
  void RegisterService(const std::string& name,
                       std::shared_ptr<services::SystemService> service);
  void HandleSoftReboot(const std::string& reason);

  SystemConfig config_;
  os::Kernel kernel_;
  std::unique_ptr<binder::BinderDriver> driver_;
  std::unique_ptr<binder::ServiceManager> service_manager_;
  services::PackageManager package_manager_;
  services::SystemContext context_;

  bool booted_ = false;
  std::map<std::string, std::shared_ptr<services::SystemService>>
      service_objects_;
  std::map<std::string, std::unique_ptr<services::AppProcess>> apps_;
  std::map<std::string, std::set<std::string>> app_permissions_;
  std::int32_t next_app_uid_ = 10050;

  TimeUs last_gc_us_ = 0;
  bool in_pump_ = false;
  std::int64_t soft_reboots_seen_ = 0;
  std::function<void()> pump_extension_;
  std::function<void()> post_reboot_hook_;
};

}  // namespace jgre::core

#endif  // JGRE_CORE_ANDROID_SYSTEM_H_
