#include "harness/branch_runner.h"

#include "common/log.h"
#include "common/strings.h"

namespace jgre::harness {

std::vector<HarnessFlag> BranchFlags() {
  return {
      {"--cold", false, "re-simulate the shared prefix per branch"},
      {"--checkpoint", true, "write the prefix checkpoint (+ manifest) here"},
      {"--resume", true, "load the prefix checkpoint instead of building it"},
  };
}

BranchOptions BranchOptionsFromHarness(const HarnessOptions& options) {
  BranchOptions branch;
  branch.jobs = options.jobs;
  branch.cold = HasFlag(options, "--cold");
  if (const std::string* path = FlagValue(options, "--checkpoint")) {
    branch.checkpoint_path = *path;
  }
  if (const std::string* path = FlagValue(options, "--resume")) {
    branch.resume_path = *path;
  }
  return branch;
}

BranchRunner::BranchRunner(sim::DeviceSpec prefix, BranchOptions options)
    : prefix_(std::move(prefix)), options_(std::move(options)) {}

Status BranchRunner::Prepare() {
  if (options_.cold || snapshot_.has_value()) return Status::Ok();
  if (!options_.resume_path.empty()) {
    auto loaded = snapshot::SystemSnapshot::ReadFile(options_.resume_path);
    if (!loaded.ok()) return loaded.status();
    snapshot_ = std::move(loaded).value();
    JGRE_LOG(kInfo, "BranchRunner")
        << "resumed prefix from " << options_.resume_path << " ("
        << snapshot_->manifest().byte_size << " bytes, virtual t="
        << snapshot_->manifest().virtual_time_us << "us)";
  } else {
    std::unique_ptr<core::AndroidSystem> system =
        sim::DeviceFactory(prefix_).BootPrefix();
    auto captured = snapshot::SystemSnapshot::Capture(*system);
    if (!captured.ok()) return captured.status();
    snapshot_ = std::move(captured).value();
  }
  if (!options_.checkpoint_path.empty()) {
    JGRE_RETURN_IF_ERROR(snapshot_->WriteFile(options_.checkpoint_path));
    JGRE_LOG(kInfo, "BranchRunner")
        << "checkpoint written to " << options_.checkpoint_path;
  }
  return Status::Ok();
}

std::unique_ptr<core::AndroidSystem> BranchRunner::RestoreBranchSystem(
    std::optional<std::size_t> branch_index) const {
  const std::string shard = branch_index.has_value()
                                ? StrCat(" (shard ", *branch_index, ")")
                                : std::string();
  if (!snapshot_.has_value()) {
    throw std::runtime_error(
        StrCat("BranchRunner", shard, ": Prepare() has not captured"));
  }
  core::SystemConfig sys_config = prefix_.system_config();
  sys_config.seed = prefix_.seed();
  auto system = std::make_unique<core::AndroidSystem>(sys_config);
  system->Boot();
  Status restored = snapshot_->RestoreInto(system.get());
  if (!restored.ok()) {
    // RestoreInto already cites the snapshot source (manifest path or
    // in-memory identity); prepend which shard hit it.
    throw std::runtime_error(
        StrCat("BranchRunner", shard,
               ": restore failed: ", restored.ToString()));
  }
  return system;
}

void BranchRunner::ReturnToPool::operator()(
    core::AndroidSystem* system) const {
  if (runner == nullptr) {
    delete system;
    return;
  }
  std::unique_ptr<core::AndroidSystem> owned(system);
  std::lock_guard<std::mutex> lock(runner->pool_mutex_);
  runner->pool_.push_back(std::move(owned));
}

BranchRunner::PooledSystem BranchRunner::AcquireSystem(
    std::optional<std::size_t> branch_index) {
  if (options_.cold) {
    return PooledSystem(sim::DeviceFactory(prefix_).BootPrefix().release());
  }
  std::unique_ptr<core::AndroidSystem> system;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      system = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  // A pooled system exists only once RestoreBranchSystem found an image.
  if (system == nullptr || !snapshot_->RestoreInto(system.get()).ok()) {
    system = RestoreBranchSystem(branch_index);
  }
  return PooledSystem(system.release(), ReturnToPool{this});
}

}  // namespace jgre::harness
