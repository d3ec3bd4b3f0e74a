#include "services/package_manager.h"

#include "common/strings.h"

namespace jgre::services {

std::string_view ProtectionLevelName(ProtectionLevel level) {
  switch (level) {
    case ProtectionLevel::kNormal:
      return "normal";
    case ProtectionLevel::kDangerous:
      return "dangerous";
    case ProtectionLevel::kSignature:
      return "signature";
  }
  return "unknown";
}

PackageManager::PackageManager() {
  // Platform permissions referenced by Table I.
  DefinePermission(perms::kAccessFineLocation, ProtectionLevel::kDangerous);
  DefinePermission(perms::kUseSip, ProtectionLevel::kDangerous);
  DefinePermission(perms::kReadPhoneState, ProtectionLevel::kDangerous);
  DefinePermission(perms::kBluetooth, ProtectionLevel::kNormal);
  DefinePermission(perms::kWakeLock, ProtectionLevel::kNormal);
  DefinePermission(perms::kChangeWifiMulticastState, ProtectionLevel::kNormal);
  DefinePermission(perms::kGetPackageSize, ProtectionLevel::kNormal);
  DefinePermission(perms::kChangeNetworkState, ProtectionLevel::kNormal);
  DefinePermission(perms::kAccessNetworkState, ProtectionLevel::kNormal);
}

void PackageManager::DefinePermission(const std::string& name,
                                      ProtectionLevel level) {
  permissions_[name] = level;
}

void PackageManager::InstallPackage(const std::string& package, Uid uid,
                                    const std::set<std::string>& granted) {
  packages_[package] = PackageInfo{uid, granted};
  uid_to_package_[uid] = package;
}

void PackageManager::UninstallPackage(const std::string& package) {
  auto it = packages_.find(package);
  if (it == packages_.end()) return;
  uid_to_package_.erase(it->second.uid);
  packages_.erase(it);
}

void PackageManager::GrantPermission(const std::string& package,
                                     const std::string& perm) {
  if (auto it = packages_.find(package); it != packages_.end()) {
    it->second.granted.insert(perm);
  }
}

void PackageManager::RevokePermission(const std::string& package,
                                      const std::string& perm) {
  if (auto it = packages_.find(package); it != packages_.end()) {
    it->second.granted.erase(perm);
  }
}

bool PackageManager::CheckPermission(Uid uid,
                                     const std::string& permission) const {
  if (uid == kRootUid || uid == kSystemUid) return true;
  auto pkg_it = uid_to_package_.find(uid);
  if (pkg_it == uid_to_package_.end()) return false;
  const PackageInfo& info = packages_.at(pkg_it->second);
  return info.granted.count(permission) > 0;
}

Result<std::string> PackageManager::GetPackageForUid(Uid uid) const {
  auto it = uid_to_package_.find(uid);
  if (it == uid_to_package_.end()) {
    return NotFound(StrCat("no package for uid ", uid.value()));
  }
  return it->second;
}

Result<Uid> PackageManager::GetUidForPackage(const std::string& package) const {
  auto it = packages_.find(package);
  if (it == packages_.end()) {
    return NotFound(StrCat("no package named ", package));
  }
  return it->second.uid;
}

Result<ProtectionLevel> PackageManager::GetProtectionLevel(
    const std::string& perm) const {
  auto it = permissions_.find(perm);
  if (it == permissions_.end()) {
    return NotFound(StrCat("undeclared permission ", perm));
  }
  return it->second;
}

void PackageManager::RestoreState(snapshot::Deserializer& in) {
  snapshot::RestoreOrdered(
      in, packages_, [](snapshot::Deserializer& in, auto& entry) {
        entry.second.uid = Uid{static_cast<std::int32_t>(in.I64())};
        snapshot::RestoreOrdered(in, entry.second.granted);
      });
  uid_to_package_.clear();
  for (const auto& [package, info] : packages_) {
    uid_to_package_[info.uid] = package;
  }
  snapshot::RestoreOrdered(
      in, permissions_, [](snapshot::Deserializer& in, auto& entry) {
        entry.second = static_cast<ProtectionLevel>(in.U8());
      });
}

std::vector<std::string> PackageManager::InstalledPackages() const {
  std::vector<std::string> out;
  out.reserve(packages_.size());
  for (const auto& [name, info] : packages_) out.push_back(name);
  return out;
}

}  // namespace jgre::services
