// BranchRunner — the warm-image cache every campaign layer starts its runs
// from: the fleet census, the defense matrix, the Fig 8 threshold and
// response-delay sweeps, and the fuzz campaign's resets.
//
// It holds warmed boot images keyed by sim::PrefixKey (boot seed + system
// config + warmup), built on first use by DeviceFactory::BootPrefix and
// captured in memory. At most `image_budget` stay resident; the least
// recently used is evicted when a new key needs a slot and rebuilt on its
// next use (BootPrefix is deterministic, so a rebuild reproduces the same
// bytes). A single-prefix runner has one key, whose image Prepare() builds
// or loads from --resume and writes to --checkpoint.
//
// AcquireSystem is the one restore path. A finished device hands its system
// back (sim::PooledSystem), and the next borrower of the same key gets it
// restored in place, which skips Boot() and teardown; on a miss, or when
// the in-place restore fails (a soft-rebooted system), it gets a fresh
// Boot() restored from the image. An in-place restore is exact, so which
// system a run draws never shows in any output: Run's results are
// byte-identical for --jobs 1 and --jobs N, and to a --cold run.
//
// The idle pool is one list across all keys. It only ever restores a system
// for the key it was handed back under, and a miss destroys the oldest idle
// system before booting, so live systems never outnumber the most that were
// borrowed at once, however many keys flow through.
//
// CLI integration: benches declare BranchFlags() in their HarnessSpec and
// feed the parsed options through BranchOptionsFromHarness to get
//   --cold               re-simulate the prefix per branch (baseline mode)
//   --checkpoint FILE    write the captured checkpoint (+ JSON manifest)
//   --resume FILE        load the prefix checkpoint instead of building it
#ifndef JGRE_HARNESS_BRANCH_RUNNER_H_
#define JGRE_HARNESS_BRANCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment_runner.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre::harness {

struct BranchOptions {
  int jobs = 1;
  bool cold = false;            // rebuild the prefix per branch
  std::string checkpoint_path;  // write the checkpoint after capture
  std::string resume_path;      // load the checkpoint instead of building
};

// The three branch flags, ready to splice into HarnessSpec::extra_flags.
std::vector<HarnessFlag> BranchFlags();

// Extracts jobs/--cold/--checkpoint/--resume from parsed harness options.
BranchOptions BranchOptionsFromHarness(const HarnessOptions& options);

// Cache counters. They depend on which worker reaches the cache first, so
// reports never publish them.
struct CacheStats {
  std::uint64_t image_builds = 0;
  std::uint64_t image_evictions = 0;
  std::uint64_t in_place_restores = 0;
};

class BranchRunner : public sim::SystemPool {
 public:
  // One key: `prefix`'s (seed, system config and warmup), which every spec
  // passed to Run and AcquireSystem must share.
  BranchRunner(sim::DeviceSpec prefix, BranchOptions options);
  // Any number of keys, each image built on first use, at most
  // `image_budget` (at least 1) resident; Run uses `jobs` workers.
  BranchRunner(int jobs, std::size_t image_budget);

  // Borrowed systems hold the runner's address to find their way back, so
  // none may outlive it.
  BranchRunner(const BranchRunner&) = delete;
  BranchRunner& operator=(const BranchRunner&) = delete;

  // Builds the prefix's image and captures it (or loads --resume and
  // restores it once, failing if it does not fit the prefix), then writes
  // --checkpoint. No-op in cold mode, without a prefix, and on repeated
  // successful calls. Separate from Run so callers can time the prefix and
  // capture phases; Run calls it implicitly.
  Status Prepare();

  // Runs `count` branches, at most `jobs` concurrently, results in
  // submission order. Branch i's device is built from spec_of(i) on a
  // system acquired for that spec (a cold prefix under --cold), handed to
  // task(i, device), and destroyed after, handing its system back.
  template <typename Result>
  std::vector<Result> Run(
      std::size_t count,
      const std::function<sim::DeviceSpec(std::size_t)>& spec_of,
      const std::function<Result(std::size_t, sim::DeviceSim&)>& task) {
    if (Status prepared = Prepare(); !prepared.ok()) {
      throw std::runtime_error(prepared.ToString());
    }
    return RunOrdered<Result>(
        count, options_.jobs, [this, &spec_of, &task](std::size_t i) {
          const sim::DeviceFactory factory(spec_of(i));
          std::unique_ptr<sim::DeviceSim> device =
              factory.CreateDeviceOn(AcquireSystem(factory.spec(), i));
          return task(i, *device);
        });
  }

  // A system in `spec`'s prefix state, for one borrower: restored in place
  // over a handed-back system of the same key, else a fresh Boot() restored
  // from the key's image. Under --cold, a freshly built prefix that is
  // never pooled. Dropping the handle hands the system back. Throws if the
  // image cannot be built or restored, naming branch `index` and the image.
  // Thread-safe.
  sim::PooledSystem AcquireSystem(const sim::DeviceSpec& spec,
                                  std::size_t index);

  // The prefix's image (null before Prepare, in cold mode, or without a
  // prefix).
  const snapshot::SystemSnapshot* snapshot() const {
    return prefix_image_.get();
  }
  CacheStats stats() const {
    return {image_builds_, image_evictions_, in_place_restores_};
  }
  // Systems handed back and not yet borrowed again.
  std::size_t idle_systems() const;

 private:
  using Image = std::shared_ptr<const snapshot::SystemSnapshot>;

  void HandBack(std::uint64_t key,
                std::unique_ptr<core::AndroidSystem> system) override;
  // The key's image, built on a miss (under the lock, so concurrent
  // requests for one key build once) and inserted as most recently used.
  // An eviction never invalidates an image a borrower still restores from.
  Result<Image> ImageFor(const sim::DeviceSpec& spec, std::uint64_t key);
  void Insert(std::uint64_t key, Image image);  // caller holds images_mu_

  std::optional<sim::DeviceSpec> prefix_;
  BranchOptions options_;
  std::size_t image_budget_;
  Image prefix_image_;

  std::mutex images_mu_;
  std::list<std::pair<std::uint64_t, Image>> images_;  // front: most recent

  mutable std::mutex pool_mu_;
  // Handed-back systems with their keys, oldest first.
  std::list<std::pair<std::uint64_t, std::unique_ptr<core::AndroidSystem>>>
      idle_;

  std::atomic<std::uint64_t> image_builds_{0};
  std::atomic<std::uint64_t> image_evictions_{0};
  std::atomic<std::uint64_t> in_place_restores_{0};
};

}  // namespace jgre::harness

#endif  // JGRE_HARNESS_BRANCH_RUNNER_H_
