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
    : prefix_(std::move(prefix)),
      options_(std::move(options)),
      image_budget_(1) {}

BranchRunner::BranchRunner(int jobs, std::size_t image_budget)
    : image_budget_(image_budget == 0 ? 1 : image_budget) {
  options_.jobs = jobs;
}

Status BranchRunner::Prepare() {
  if (options_.cold || !prefix_.has_value() || prefix_image_ != nullptr) {
    return Status::Ok();
  }
  const std::uint64_t key = sim::PrefixKey(*prefix_);
  if (!options_.resume_path.empty()) {
    auto loaded = snapshot::SystemSnapshot::ReadFile(options_.resume_path);
    if (!loaded.ok()) return loaded.status();
    prefix_image_ = std::make_shared<const snapshot::SystemSnapshot>(
        std::move(loaded).value());
    JGRE_LOG(kInfo, "BranchRunner")
        << "resumed prefix from " << options_.resume_path << " ("
        << prefix_image_->manifest().byte_size << " bytes, virtual t="
        << prefix_image_->manifest().virtual_time_us << "us)";
    {
      std::lock_guard<std::mutex> lock(images_mu_);
      Insert(key, prefix_image_);
    }
    // A file that loads may still not fit this prefix (written under
    // another config or payload layout): restore it once, so that fails
    // here with a Status rather than mid-run. The system joins the pool.
    try {
      AcquireSystem(*prefix_, 0);
    } catch (const std::runtime_error& error) {
      prefix_image_.reset();
      return InvalidArgument(
          StrCat("--resume ", options_.resume_path, ": ", error.what()));
    }
  } else {
    Result<Image> built = ImageFor(*prefix_, key);
    if (!built.ok()) return built.status();
    prefix_image_ = std::move(built).value();
  }
  if (!options_.checkpoint_path.empty()) {
    JGRE_RETURN_IF_ERROR(prefix_image_->WriteFile(options_.checkpoint_path));
    JGRE_LOG(kInfo, "BranchRunner")
        << "checkpoint written to " << options_.checkpoint_path;
  }
  return Status::Ok();
}

void BranchRunner::Insert(std::uint64_t key, Image image) {
  images_.emplace_front(key, std::move(image));
  if (images_.size() > image_budget_) {
    images_.pop_back();
    ++image_evictions_;
  }
}

Result<BranchRunner::Image> BranchRunner::ImageFor(
    const sim::DeviceSpec& spec, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(images_mu_);
  for (auto it = images_.begin(); it != images_.end(); ++it) {
    if (it->first == key) {
      images_.splice(images_.begin(), images_, it);  // touch: most recent
      return images_.front().second;
    }
  }
  // Building under the lock is deliberate: two workers missing on one key
  // must not boot the prefix twice, and a boot outweighs the restores it
  // briefly blocks.
  auto captured = snapshot::SystemSnapshot::Capture(
      *sim::DeviceFactory(spec).BootPrefix());
  if (!captured.ok()) return captured.status();
  ++image_builds_;
  Insert(key, std::make_shared<const snapshot::SystemSnapshot>(
                  std::move(captured).value()));
  return images_.front().second;
}

sim::PooledSystem BranchRunner::AcquireSystem(const sim::DeviceSpec& spec,
                                              std::size_t index) {
  if (options_.cold) {
    return sim::PooledSystem(sim::DeviceFactory(spec).BootPrefix().release());
  }
  const std::uint64_t key = sim::PrefixKey(spec);
  Result<Image> built = ImageFor(spec, key);
  if (!built.ok()) {
    throw std::runtime_error(StrCat("BranchRunner (branch ", index,
                                    "): boot image build failed: ",
                                    built.status().ToString()));
  }
  const Image image = std::move(built).value();
  std::unique_ptr<core::AndroidSystem> system;
  std::unique_ptr<core::AndroidSystem> dropped;  // destroyed after unlock
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
      if (it->first == key) {
        system = std::move(it->second);
        idle_.erase(std::next(it).base());
        break;
      }
    }
    // A miss boots a system in place of the oldest idle one, so the pool
    // never outgrows the most systems borrowed at once.
    if (system == nullptr && !idle_.empty()) {
      dropped = std::move(idle_.front().second);
      idle_.pop_front();
    }
  }
  dropped.reset();
  for (bool in_place = system != nullptr;; in_place = false) {
    if (!in_place) {
      core::SystemConfig config = spec.system_config();
      config.seed = spec.seed();
      system = std::make_unique<core::AndroidSystem>(config);
      system->Boot();
    }
    const Status restored = image->RestoreInto(system.get());
    if (restored.ok()) {
      if (in_place) ++in_place_restores_;
      break;
    }
    // A handed-back system the image cannot be restored over (it soft-
    // rebooted, or a boot-time binder died) is replaced by a fresh boot;
    // failing on a fresh boot means the image is bad. RestoreInto already
    // cites the image's source.
    if (!in_place) {
      throw std::runtime_error(StrCat("BranchRunner (branch ", index,
                                      "): restore failed: ",
                                      restored.ToString()));
    }
  }
  return sim::PooledSystem(system.release(), sim::ReturnToPool{this, key});
}

void BranchRunner::HandBack(std::uint64_t key,
                            std::unique_ptr<core::AndroidSystem> system) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  idle_.emplace_back(key, std::move(system));
}

std::size_t BranchRunner::idle_systems() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return idle_.size();
}

}  // namespace jgre::harness
