#include "attack/vuln_registry.h"

#include <set>

#include "common/strings.h"
#include "core/android_system.h"
#include "services/activity_service.h"
#include "services/app_services.h"
#include "services/audio_service.h"
#include "services/clipboard_service.h"
#include "services/location_service.h"
#include "services/misc_system_services.h"
#include "services/net_media_services.h"
#include "services/notification_service.h"
#include "services/package_manager.h"
#include "services/safe_service.h"
#include "services/telephony_registry_service.h"
#include "services/ui_services.h"
#include "services/wifi_service.h"

namespace jgre::attack {

namespace sv = jgre::services;

namespace {

// Argument-writer factories. Every writer mints a fresh Binder per call —
// the essence of the attack (a reused binder would hit the proxy cache and
// pin nothing new).
using Writer = std::function<void(sv::AppProcess&, binder::Parcel&)>;

Writer BinderOnly(const char* descriptor) {
  return [descriptor](sv::AppProcess& app, binder::Parcel& p) {
    p.WriteStrongBinder(app.NewBinder(descriptor));
  };
}

Writer StringThenBinder(const char* str, const char* descriptor) {
  return [str, descriptor](sv::AppProcess& app, binder::Parcel& p) {
    p.WriteString(str);
    p.WriteStrongBinder(app.NewBinder(descriptor));
  };
}

Writer TwoBinders(const char* d1, const char* d2) {
  return [d1, d2](sv::AppProcess& app, binder::Parcel& p) {
    p.WriteStrongBinder(app.NewBinder(d1));
    p.WriteStrongBinder(app.NewBinder(d2));
  };
}

std::vector<VulnSpec> BuildAll() {
  std::vector<VulnSpec> v;
  int id = 0;
  auto add = [&](std::string service, std::string interface,
                 std::string descriptor, std::uint32_t code,
                 std::string permission, Protection protection,
                 int jgrs_per_call, Writer writer) {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = std::move(service);
    spec.interface = std::move(interface);
    spec.descriptor = std::move(descriptor);
    spec.code = code;
    spec.permission = std::move(permission);
    spec.protection = protection;
    spec.jgrs_per_call = jgrs_per_call;
    spec.write_args = std::move(writer);
    v.push_back(std::move(spec));
  };

  // ----- Table I: 44 unprotected interfaces --------------------------------
  add(sv::LocationService::kName, "addGpsStatusListener",
      sv::LocationService::kDescriptor,
      sv::LocationService::TRANSACTION_addGpsStatusListener,
      sv::perms::kAccessFineLocation, Protection::kNone, 2,
      BinderOnly("IGpsStatusListener"));
  add(sv::SipService::kName, "open3", sv::SipService::kDescriptor,
      sv::SipService::TRANSACTION_open3, sv::perms::kUseSip, Protection::kNone,
      3, StringThenBinder("sip:[email protected]", "ISipSessionListener"));
  add(sv::SipService::kName, "createSession", sv::SipService::kDescriptor,
      sv::SipService::TRANSACTION_createSession, sv::perms::kUseSip,
      Protection::kNone, 3,
      StringThenBinder("sip:[email protected]", "ISipSessionListener"));
  add(sv::MidiService::kName, "registerListener",
      sv::MidiService::kDescriptor,
      sv::MidiService::TRANSACTION_registerListener, "", Protection::kNone, 2,
      BinderOnly("IMidiDeviceListener"));
  add(sv::MidiService::kName, "openDevice", sv::MidiService::kDescriptor,
      sv::MidiService::TRANSACTION_openDevice, "", Protection::kNone, 3,
      StringThenBinder("usb-midi-0", "IMidiDeviceOpenCallback"));
  add(sv::MidiService::kName, "openBluetoothDevice",
      sv::MidiService::kDescriptor,
      sv::MidiService::TRANSACTION_openBluetoothDevice, "", Protection::kNone,
      3, StringThenBinder("00:11:22:33:44:55", "IMidiDeviceOpenCallback"));
  add(sv::MidiService::kName, "registerDeviceServer",
      sv::MidiService::kDescriptor,
      sv::MidiService::TRANSACTION_registerDeviceServer, "", Protection::kNone,
      3, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("IMidiDeviceServer"));
        p.WriteInt32(1);  // numInputPorts
        p.WriteInt32(1);  // numOutputPorts
        p.WriteString("evil-midi-device");
      });
  add(sv::ContentService::kName, "registerContentObserver",
      sv::ContentService::kDescriptor,
      sv::ContentService::TRANSACTION_registerContentObserver, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteString("content://media/external");
        p.WriteBool(true);
        p.WriteStrongBinder(app.NewBinder("IContentObserver"));
      });
  add(sv::ContentService::kName, "addStatusChangeListener",
      sv::ContentService::kDescriptor,
      sv::ContentService::TRANSACTION_addStatusChangeListener, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteInt32(7);  // mask
        p.WriteStrongBinder(app.NewBinder("ISyncStatusObserver"));
      });
  add(sv::MountService::kName, "registerListener",
      sv::MountService::kDescriptor,
      sv::MountService::TRANSACTION_registerListener, "", Protection::kNone, 2,
      BinderOnly("IMountServiceListener"));
  add(sv::AppOpsService::kName, "startWatchingMode",
      sv::AppOpsService::kDescriptor,
      sv::AppOpsService::TRANSACTION_startWatchingMode, "", Protection::kNone,
      2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteInt32(24);  // OP_SYSTEM_ALERT_WINDOW
        p.WriteString(app.package());
        p.WriteStrongBinder(app.NewBinder("IAppOpsCallback"));
      });
  add(sv::AppOpsService::kName, "getToken", sv::AppOpsService::kDescriptor,
      sv::AppOpsService::TRANSACTION_getToken, "", Protection::kNone, 3,
      BinderOnly("AppOpsClientToken"));
  add(sv::BluetoothManagerService::kName, "registerAdapter",
      sv::BluetoothManagerService::kDescriptor,
      sv::BluetoothManagerService::TRANSACTION_registerAdapter, "",
      Protection::kNone, 2, BinderOnly("IBluetoothManagerCallback"));
  add(sv::BluetoothManagerService::kName, "registerStateChangeCallback",
      sv::BluetoothManagerService::kDescriptor,
      sv::BluetoothManagerService::TRANSACTION_registerStateChangeCallback,
      sv::perms::kBluetooth, Protection::kNone, 2,
      BinderOnly("IBluetoothStateChangeCallback"));
  add(sv::BluetoothManagerService::kName, "bindBluetoothProfileService",
      sv::BluetoothManagerService::kDescriptor,
      sv::BluetoothManagerService::TRANSACTION_bindBluetoothProfileService, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteInt32(1);  // BluetoothProfile.HEADSET
        p.WriteStrongBinder(
            app.NewBinder("IBluetoothProfileServiceConnection"));
      });
  add(sv::BluetoothManagerService::kName, "bindBluetoothProfileService(IBinder)",
      sv::BluetoothManagerService::kDescriptor,
      sv::BluetoothManagerService::TRANSACTION_bindBluetoothProfileService2,
      "", Protection::kNone, 2,
      BinderOnly("IBluetoothProfileServiceConnection"));
  add(sv::AudioService::kName, "registerRemoteController",
      sv::AudioService::kDescriptor,
      sv::AudioService::TRANSACTION_registerRemoteController, "",
      Protection::kNone, 2, BinderOnly("IRemoteControlDisplay"));
  add(sv::AudioService::kName, "startWatchingRoutes",
      sv::AudioService::kDescriptor,
      sv::AudioService::TRANSACTION_startWatchingRoutes, "", Protection::kNone,
      2, BinderOnly("IAudioRoutesObserver"));
  add(sv::CountryDetectorService::kName, "addCountryListener",
      sv::CountryDetectorService::kDescriptor,
      sv::CountryDetectorService::TRANSACTION_addCountryListener, "",
      Protection::kNone, 2, BinderOnly("ICountryListener"));
  add(sv::PowerService::kName, "acquireWakeLock",
      sv::PowerService::kDescriptor,
      sv::PowerService::TRANSACTION_acquireWakeLock, sv::perms::kWakeLock,
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("WakeLockToken"));
        p.WriteInt32(1);  // PARTIAL_WAKE_LOCK
        p.WriteString("evil-lock");
        p.WriteString(app.package());
      });
  add(sv::InputMethodService::kName, "addClient",
      sv::InputMethodService::kDescriptor,
      sv::InputMethodService::TRANSACTION_addClient, "", Protection::kNone, 4,
      TwoBinders("IInputMethodClient", "IInputContext"));
  add(sv::AccessibilityService::kName,
      "addAccessibilityInteractionConnection",
      sv::AccessibilityService::kDescriptor,
      sv::AccessibilityService::
          TRANSACTION_addAccessibilityInteractionConnection,
      "", Protection::kNone, 4,
      TwoBinders("IWindow", "IAccessibilityInteractionConnection"));
  add(sv::PrintService::kName, "print", sv::PrintService::kDescriptor,
      sv::PrintService::TRANSACTION_print, "", Protection::kNone, 3,
      StringThenBinder("evil-job", "IPrintDocumentAdapter"));
  add(sv::PrintService::kName, "addPrintJobStateChangeListener",
      sv::PrintService::kDescriptor,
      sv::PrintService::TRANSACTION_addPrintJobStateChangeListener, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("IPrintJobStateChangeListener"));
        p.WriteInt32(0);  // appId
      });
  add(sv::PrintService::kName, "createPrinterDiscoverySession",
      sv::PrintService::kDescriptor,
      sv::PrintService::TRANSACTION_createPrinterDiscoverySession, "",
      Protection::kNone, 3, BinderOnly("IPrinterDiscoveryObserver"));
  add(sv::PackageService::kName, "getPackageSizeInfo",
      sv::PackageService::kDescriptor,
      sv::PackageService::TRANSACTION_getPackageSizeInfo,
      sv::perms::kGetPackageSize, Protection::kNone, 2,
      StringThenBinder("com.android.settings", "IPackageStatsObserver"));
  add(sv::TelephonyRegistryService::kName, "addOnSubscriptionsChangedListener",
      sv::TelephonyRegistryService::kDescriptor,
      sv::TelephonyRegistryService::
          TRANSACTION_addOnSubscriptionsChangedListener,
      sv::perms::kReadPhoneState, Protection::kNone, 2,
      StringThenBinder("evil", "IOnSubscriptionsChangedListener"));
  add(sv::TelephonyRegistryService::kName, "listen",
      sv::TelephonyRegistryService::kDescriptor,
      sv::TelephonyRegistryService::TRANSACTION_listen,
      sv::perms::kReadPhoneState, Protection::kNone, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteString(app.package());
        p.WriteStrongBinder(app.NewBinder("IPhoneStateListener"));
        p.WriteInt32(0x10);  // LISTEN_CALL_STATE
      });
  add(sv::TelephonyRegistryService::kName, "listenForSubscriber",
      sv::TelephonyRegistryService::kDescriptor,
      sv::TelephonyRegistryService::TRANSACTION_listenForSubscriber,
      sv::perms::kReadPhoneState, Protection::kNone, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteInt32(1);  // subId
        p.WriteString(app.package());
        p.WriteStrongBinder(app.NewBinder("IPhoneStateListener"));
        p.WriteInt32(0x10);
      });
  add(sv::MediaSessionService::kName, "registerCallbackListener",
      sv::MediaSessionService::kDescriptor,
      sv::MediaSessionService::TRANSACTION_registerCallbackListener, "",
      Protection::kNone, 2, BinderOnly("IActiveSessionsListener"));
  add(sv::MediaSessionService::kName, "createSession",
      sv::MediaSessionService::kDescriptor,
      sv::MediaSessionService::TRANSACTION_createSession, "",
      Protection::kNone, 3, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteString(app.package());
        p.WriteStrongBinder(app.NewBinder("ISessionCallback"));
        p.WriteString("evil-session");
      });
  add(sv::MediaRouterService::kName, "registerClientAsUser",
      sv::MediaRouterService::kDescriptor,
      sv::MediaRouterService::TRANSACTION_registerClientAsUser, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("IMediaRouterClient"));
        p.WriteString(app.package());
        p.WriteInt32(0);  // userId
      });
  add(sv::MediaProjectionService::kName, "registerCallback",
      sv::MediaProjectionService::kDescriptor,
      sv::MediaProjectionService::TRANSACTION_registerCallback, "",
      Protection::kNone, 2, BinderOnly("IMediaProjectionWatcherCallback"));
  add(sv::InputService::kName, "vibrate", sv::InputService::kDescriptor,
      sv::InputService::TRANSACTION_vibrate, "", Protection::kNone, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteByteArray(16);  // pattern
        p.WriteInt32(-1);      // no repeat
        p.WriteStrongBinder(app.NewBinder("VibrateToken"));
      });
  add(sv::WindowService::kName, "watchRotation",
      sv::WindowService::kDescriptor,
      sv::WindowService::TRANSACTION_watchRotation, "", Protection::kNone, 2,
      BinderOnly("IRotationWatcher"));
  add(sv::WallpaperService::kName, "getWallpaper",
      sv::WallpaperService::kDescriptor,
      sv::WallpaperService::TRANSACTION_getWallpaper, "", Protection::kNone, 2,
      BinderOnly("IWallpaperManagerCallback"));
  add(sv::FingerprintService::kName, "addLockoutResetCallback",
      sv::FingerprintService::kDescriptor,
      sv::FingerprintService::TRANSACTION_addLockoutResetCallback, "",
      Protection::kNone, 2,
      BinderOnly("IFingerprintServiceLockoutResetCallback"));
  add(sv::TextServicesService::kName, "getSpellCheckerService",
      sv::TextServicesService::kDescriptor,
      sv::TextServicesService::TRANSACTION_getSpellCheckerService, "",
      Protection::kNone, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteString("com.android.inputmethod.latin/.spellcheck");
        p.WriteString("en_US");
        p.WriteStrongBinder(app.NewBinder("ISpellCheckerServiceCallback"));
      });
  add(sv::NetworkManagementService::kName, "registerNetworkActivityListener",
      sv::NetworkManagementService::kDescriptor,
      sv::NetworkManagementService::
          TRANSACTION_registerNetworkActivityListener,
      sv::perms::kChangeNetworkState, Protection::kNone, 2,
      BinderOnly("INetworkActivityListener"));
  add(sv::ConnectivityService::kName, "requestNetwork",
      sv::ConnectivityService::kDescriptor,
      sv::ConnectivityService::TRANSACTION_requestNetwork,
      sv::perms::kChangeNetworkState, Protection::kNone, 2,
      StringThenBinder("cap=INTERNET", "NetworkRequestToken"));
  add(sv::ConnectivityService::kName, "listenForNetwork",
      sv::ConnectivityService::kDescriptor,
      sv::ConnectivityService::TRANSACTION_listenForNetwork,
      sv::perms::kAccessNetworkState, Protection::kNone, 2,
      StringThenBinder("cap=INTERNET", "NetworkListenToken"));
  add(sv::ActivityService::kName, "registerTaskStackListener",
      sv::ActivityService::kDescriptor,
      sv::ActivityService::TRANSACTION_registerTaskStackListener, "",
      Protection::kNone, 2, BinderOnly("ITaskStackListener"));
  add(sv::ActivityService::kName, "registerReceiver",
      sv::ActivityService::kDescriptor,
      sv::ActivityService::TRANSACTION_registerReceiver, "", Protection::kNone,
      2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteString(app.package());
        p.WriteStrongBinder(app.NewBinder("IIntentReceiver"));
        p.WriteString("android.intent.action.BATTERY_CHANGED");
      });
  add(sv::ActivityService::kName, "bindService",
      sv::ActivityService::kDescriptor,
      sv::ActivityService::TRANSACTION_bindService, "", Protection::kNone, 2,
      StringThenBinder("com.evil/.Service", "IServiceConnection"));

  // ----- Table II: helper-protected, bypassable directly -------------------
  add(sv::ClipboardService::kName, "addPrimaryClipChangedListener",
      sv::ClipboardService::kDescriptor,
      sv::ClipboardService::TRANSACTION_addPrimaryClipChangedListener, "",
      Protection::kHelperClass, 2,
      BinderOnly("IOnPrimaryClipChangedListener"));
  add(sv::AccessibilityService::kName, "addClient",
      sv::AccessibilityService::kDescriptor,
      sv::AccessibilityService::TRANSACTION_addClient, "",
      Protection::kHelperClass, 2, BinderOnly("IAccessibilityManagerClient"));
  add(sv::LauncherAppsService::kName, "addOnAppsChangedListener",
      sv::LauncherAppsService::kDescriptor,
      sv::LauncherAppsService::TRANSACTION_addOnAppsChangedListener, "",
      Protection::kHelperClass, 2, BinderOnly("IOnAppsChangedListener"));
  add(sv::TvInputService::kName, "registerCallback",
      sv::TvInputService::kDescriptor,
      sv::TvInputService::TRANSACTION_registerCallback, "",
      Protection::kHelperClass, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("ITvInputManagerCallback"));
        p.WriteInt32(0);  // userId
      });
  add(sv::EthernetService::kName, "addListener",
      sv::EthernetService::kDescriptor,
      sv::EthernetService::TRANSACTION_addListener, "",
      Protection::kHelperClass, 2, BinderOnly("IEthernetServiceListener"));
  add(sv::WifiService::kName, "acquireWifiLock",
      sv::WifiService::kDescriptor,
      sv::WifiService::TRANSACTION_acquireWifiLock, sv::perms::kWakeLock,
      Protection::kHelperClass, 2, [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("WifiLockToken"));
        p.WriteInt32(1);
        p.WriteString("evil-wifi-lock");
      });
  add(sv::WifiService::kName, "acquireMulticastLock",
      sv::WifiService::kDescriptor,
      sv::WifiService::TRANSACTION_acquireMulticastLock,
      sv::perms::kChangeWifiMulticastState, Protection::kHelperClass, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        p.WriteStrongBinder(app.NewBinder("MulticastLockToken"));
        p.WriteString("evil-multicast-lock");
      });
  add(sv::LocationService::kName, "addGpsMeasurementsListener",
      sv::LocationService::kDescriptor,
      sv::LocationService::TRANSACTION_addGpsMeasurementsListener,
      sv::perms::kAccessFineLocation, Protection::kHelperClass, 2,
      BinderOnly("IGpsMeasurementsListener"));
  add(sv::LocationService::kName, "addGpsNavigationMessageListener",
      sv::LocationService::kDescriptor,
      sv::LocationService::TRANSACTION_addGpsNavigationMessageListener,
      sv::perms::kAccessFineLocation, Protection::kHelperClass, 2,
      BinderOnly("IGpsNavigationMessageListener"));

  // ----- Table III's flawed per-process constraint --------------------------
  add(sv::NotificationService::kName, "enqueueToast",
      sv::NotificationService::kDescriptor,
      sv::NotificationService::TRANSACTION_enqueueToast, "",
      Protection::kPerProcessFlawed, 2,
      [](sv::AppProcess& app, binder::Parcel& p) {
        // The bypass: claim to be the "android" package (Code-Snippet 3).
        p.WriteString("android");
        p.WriteStrongBinder(app.NewBinder("ITransientNotification"));
        p.WriteInt32(1);  // LENGTH_LONG
      });

  // ----- Table IV: prebuilt apps -------------------------------------------
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = "picotts";
    spec.interface = "setCallback";
    spec.descriptor = sv::TextToSpeechService::kDescriptor;
    spec.code = sv::TextToSpeechService::TRANSACTION_setCallback;
    spec.protection = Protection::kNone;
    spec.victim = VictimKind::kPrebuiltApp;
    spec.victim_package = "com.svox.pico";
    spec.jgrs_per_call = 4;  // caller identity binder + callback, both kept
    spec.write_args = TwoBinders("CallerIdentity", "ITextToSpeechCallback");
    v.push_back(std::move(spec));
  }
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = sv::GattService::kName;
    spec.interface = "registerServer";
    spec.descriptor = sv::GattService::kDescriptor;
    spec.code = sv::GattService::TRANSACTION_registerServer;
    spec.protection = Protection::kNone;
    spec.victim = VictimKind::kPrebuiltApp;
    spec.victim_package = "com.android.bluetooth";
    spec.jgrs_per_call = 3;
    spec.write_args =
        StringThenBinder("0000aaaa-0000-1000-8000-00805f9b34fb",
                         "IBluetoothGattServerCallback");
    v.push_back(std::move(spec));
  }
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = sv::BluetoothAdapterService::kName;
    spec.interface = "registerCallback";
    spec.descriptor = sv::BluetoothAdapterService::kDescriptor;
    spec.code = sv::BluetoothAdapterService::TRANSACTION_registerCallback;
    spec.protection = Protection::kNone;
    spec.victim = VictimKind::kPrebuiltApp;
    spec.victim_package = "com.android.bluetooth";
    spec.jgrs_per_call = 2;
    spec.write_args = BinderOnly("IBluetoothCallback");
    v.push_back(std::move(spec));
  }
  return v;
}

std::vector<VulnSpec> BuildThirdParty() {
  std::vector<VulnSpec> v;
  int id = 100;
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = "googletts";
    spec.interface = "setCallback";
    spec.descriptor = sv::TextToSpeechService::kDescriptor;
    spec.code = sv::TextToSpeechService::TRANSACTION_setCallback;
    spec.victim = VictimKind::kThirdPartyApp;
    spec.victim_package = "com.google.android.tts";
    spec.jgrs_per_call = 4;
    spec.write_args = TwoBinders("CallerIdentity", "ITextToSpeechCallback");
    v.push_back(std::move(spec));
  }
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = "supernetvpn";
    spec.interface = "registerStatusCallback";
    spec.descriptor = sv::OpenVpnApiService::kDescriptor;
    spec.code = sv::OpenVpnApiService::TRANSACTION_registerStatusCallback;
    spec.victim = VictimKind::kThirdPartyApp;
    spec.victim_package = "com.supernet.vpn";
    spec.jgrs_per_call = 2;
    spec.write_args = BinderOnly("IOpenVPNStatusCallback");
    v.push_back(std::move(spec));
  }
  {
    VulnSpec spec;
    spec.id = ++id;
    spec.service = "snapmovie";
    spec.interface = "a";
    spec.descriptor = sv::SnapMovieMainService::kDescriptor;
    spec.code = sv::SnapMovieMainService::TRANSACTION_a;
    spec.victim = VictimKind::kThirdPartyApp;
    spec.victim_package = "com.snapmovie";
    spec.jgrs_per_call = 2;
    spec.write_args = BinderOnly("ICallback");
    v.push_back(std::move(spec));
  }
  return v;
}

}  // namespace

const std::vector<VulnSpec>& AllVulnerabilities() {
  static const std::vector<VulnSpec> kAll = BuildAll();
  return kAll;
}

std::vector<VulnSpec> SystemServerVulnerabilities() {
  std::vector<VulnSpec> out;
  for (const VulnSpec& spec : AllVulnerabilities()) {
    if (spec.victim == VictimKind::kSystemServer) out.push_back(spec);
  }
  return out;
}

const std::vector<VulnSpec>& ThirdPartyVulnerabilities() {
  static const std::vector<VulnSpec> kThirdParty = BuildThirdParty();
  return kThirdParty;
}

const VulnSpec& ChurnAttackSpec() {
  static const VulnSpec spec = [] {
    VulnSpec s;
    s.id = kChurnVulnId;
    s.service = "account";
    s.interface = "setCallback";
    // GenericSafeService descriptors splice the raw service name between the
    // "android.os.I"/"Service" affixes — no capitalisation.
    s.descriptor = "android.os.IaccountService";
    s.code = sv::GenericSafeService::TRANSACTION_setCallback;
    s.victim = VictimKind::kSystemServer;
    s.jgrs_per_call = 0;  // replace-single: the previous reference is evicted
    s.write_args = [](sv::AppProcess& app, binder::Parcel& p) {
      p.WriteStrongBinder(app.NewBinder("IAccountCallback"));
    };
    return s;
  }();
  return spec;
}

const VulnSpec* FindVulnerability(const std::string& service,
                                  const std::string& interface) {
  for (const VulnSpec& spec : AllVulnerabilities()) {
    if (spec.service == service && spec.interface == interface) return &spec;
  }
  return nullptr;
}

services::AppProcess* InstallAttackApp(core::AndroidSystem* system,
                                       const std::string& package,
                                       const VulnSpec& vuln) {
  std::set<std::string> permissions;
  if (!vuln.permission.empty()) permissions.insert(vuln.permission);
  return system->InstallApp(package, permissions);
}

}  // namespace jgre::attack
