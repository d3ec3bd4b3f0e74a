// PackageManager — installed packages and the permission model.
//
// Android's permission model is the security boundary the paper shows to be
// insufficient: it gates *whether* an app may call an interface, not *how
// many* resources the calls consume (§I). We model protection levels and
// grants so Table I's "required permission" column and the sifter's
// permission filter are real checks, not annotations.
#ifndef JGRE_SERVICES_PACKAGE_MANAGER_H_
#define JGRE_SERVICES_PACKAGE_MANAGER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre::services {

enum class ProtectionLevel {
  kNormal,     // granted at install
  kDangerous,  // user-granted at runtime
  kSignature,  // platform-signed only
};

std::string_view ProtectionLevelName(ProtectionLevel level);

// Well-known permission names used by the vulnerable interfaces (Table I).
namespace perms {
inline constexpr const char* kAccessFineLocation =
    "android.permission.ACCESS_FINE_LOCATION";
inline constexpr const char* kUseSip = "android.permission.USE_SIP";
inline constexpr const char* kReadPhoneState =
    "android.permission.READ_PHONE_STATE";
inline constexpr const char* kBluetooth = "android.permission.BLUETOOTH";
inline constexpr const char* kWakeLock = "android.permission.WAKE_LOCK";
inline constexpr const char* kChangeWifiMulticastState =
    "android.permission.CHANGE_WIFI_MULTICAST_STATE";
inline constexpr const char* kGetPackageSize =
    "android.permission.GET_PACKAGE_SIZE";
inline constexpr const char* kChangeNetworkState =
    "android.permission.CHANGE_NETWORK_STATE";
inline constexpr const char* kAccessNetworkState =
    "android.permission.ACCESS_NETWORK_STATE";
}  // namespace perms

class PackageManager {
 public:
  PackageManager();

  // Declares a permission with its protection level (platform manifest).
  void DefinePermission(const std::string& name, ProtectionLevel level);

  // Installs `package` under `uid`. `granted` must be declared permissions.
  void InstallPackage(const std::string& package, Uid uid,
                      const std::set<std::string>& granted = {});
  void UninstallPackage(const std::string& package);

  void GrantPermission(const std::string& package, const std::string& perm);
  void RevokePermission(const std::string& package, const std::string& perm);

  // PackageManager.checkPermission: uid 0/1000 hold everything.
  bool CheckPermission(Uid uid, const std::string& permission) const;

  Result<std::string> GetPackageForUid(Uid uid) const;
  Result<Uid> GetUidForPackage(const std::string& package) const;
  Result<ProtectionLevel> GetProtectionLevel(const std::string& perm) const;

  std::vector<std::string> InstalledPackages() const;

  // Checkpointing: installed packages with their grants, and declared
  // permissions. All containers are ordered, so iteration is already
  // byte-stable. RestoreState merges the image into the tables in key order
  // (snapshot::RestoreOrdered): every package, grant set, grant and
  // permission equal to the image's is kept, and only the difference is
  // inserted or erased; names out of order or repeated fail the stream. The
  // uid routing is then rebuilt from the restored packages.
  void SaveState(snapshot::Serializer& out) const {
    out.U64(packages_.size());
    for (const auto& [package, info] : packages_) {
      out.Str(package);
      out.I64(info.uid.value());
      out.U64(info.granted.size());
      for (const std::string& perm : info.granted) out.Str(perm);
    }
    out.U64(permissions_.size());
    for (const auto& [perm, level] : permissions_) {
      out.Str(perm);
      out.U8(static_cast<std::uint8_t>(level));
    }
  }
  void RestoreState(snapshot::Deserializer& in);

 private:
  struct PackageInfo {
    Uid uid;
    std::set<std::string> granted;
  };
  std::map<std::string, PackageInfo> packages_;
  // Each uid's package; a uid two packages share routes to the one
  // installed last (after a restore, the later name).
  std::map<Uid, std::string> uid_to_package_;
  std::map<std::string, ProtectionLevel> permissions_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_PACKAGE_MANAGER_H_
