#include "binder/service_manager.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"

namespace jgre::binder {

Status ServiceManager::AddService(const std::string& name,
                                  const std::shared_ptr<BBinder>& service,
                                  Uid caller) {
  if (caller != kRootUid && caller != kSystemUid) {
    return PermissionDenied(
        StrCat("uid ", caller.value(), " may not register service '", name,
               "'"));
  }
  if (service == nullptr || !service->node().valid()) {
    return InvalidArgument("service must be a registered binder");
  }
  const StringInterner::Id id = names_.Intern(name);
  if (id >= nodes_by_name_.size()) nodes_by_name_.resize(id + 1);
  if (!nodes_by_name_[id].valid()) ++service_count_;
  nodes_by_name_[id] = service->node();
  // servicemanager keeps a strong handle on every registered service, so the
  // service's JavaBBinder reference is permanent.
  driver_->PinNode(service->node());
  JGRE_LOG(kDebug, "servicemanager") << "registered " << name;
  return Status::Ok();
}

Result<StrongBinder> ServiceManager::GetService(std::string_view name,
                                                Pid caller) {
  const StringInterner::Id id = names_.Find(name);
  if (id == StringInterner::kInvalidId || !nodes_by_name_[id].valid()) {
    return NotFound(StrCat("no service named '", name, "'"));
  }
  return driver_->MaterializeBinder(nodes_by_name_[id], caller);
}

std::vector<std::string> ServiceManager::ListServices() const {
  std::vector<std::string> names;
  names.reserve(service_count_);
  for (StringInterner::Id id = 0; id < nodes_by_name_.size(); ++id) {
    if (nodes_by_name_[id].valid()) names.push_back(names_.Name(id));
  }
  // The seed kept a std::map, so callers saw names in sorted order; preserve
  // that contract.
  std::sort(names.begin(), names.end());
  return names;
}

void ServiceManager::Clear() {
  std::fill(nodes_by_name_.begin(), nodes_by_name_.end(), NodeId{});
  service_count_ = 0;
}

}  // namespace jgre::binder
