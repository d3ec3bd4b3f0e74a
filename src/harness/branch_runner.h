// BranchRunner — checkpoint a shared experiment prefix once, then fan out N
// independent branches across the work-stealing pool.
//
// Parameter sweeps (threshold ablations, scoring sensitivity, response-delay
// curves) share an identical expensive prefix: boot + warmup workload. A
// cold sweep re-simulates that prefix once per point; BranchRunner builds it
// once, captures a snapshot::SystemSnapshot, and restores each branch from
// the shared in-memory image — preserving RunOrdered's submission-order
// determinism, so a sweep's output is byte-identical for --jobs 1 and
// --jobs N, and (by the divergence audit) byte-identical to the cold sweep.
//
// AcquireSystem adds a pool for callers that only borrow a system (the fuzz
// campaign's snapshot-reset loop): a system handed back is restored in place
// for the next caller instead of being destroyed, so a reset skips Boot()
// and teardown. An in-place restore is exact, so which pooled system a task
// draws never shows in any output.
//
// CLI integration: benches declare BranchFlags() in their HarnessSpec and
// feed the parsed options through BranchOptionsFromHarness to get
//   --cold               re-simulate the prefix per branch (baseline mode)
//   --checkpoint FILE    write the captured checkpoint (+ JSON manifest)
//   --resume FILE        load the prefix checkpoint instead of building it
#ifndef JGRE_HARNESS_BRANCH_RUNNER_H_
#define JGRE_HARNESS_BRANCH_RUNNER_H_

#include <cstdint>
#include <functional>
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

class BranchRunner {
 public:
  // `prefix` defines the shared phase: seed, system config, and warmup
  // (sim::DeviceSpec::WithWarmup). Branch specs passed to Run must share the
  // prefix's sim::PrefixKey (same boot seed/system config/warmup) so that a
  // cold branch rebuilds the exact prefix the snapshot captured.
  BranchRunner(sim::DeviceSpec prefix, BranchOptions options);

  // Borrowed systems hold the runner's address to find their way back.
  BranchRunner(const BranchRunner&) = delete;
  BranchRunner& operator=(const BranchRunner&) = delete;

  // Builds the shared prefix and captures it (or loads --resume). No-op in
  // cold mode and on repeated calls. Separate from Run so callers can time
  // the prefix/capture phases; Run calls it implicitly.
  Status Prepare();

  // Runs `count` branches, at most options.jobs concurrently, results in
  // submission order. Branch i is configured by branch_spec(i) — its device
  // built on a system restored from the shared checkpoint (or a cold prefix
  // under --cold) — then handed to task(i, device).
  template <typename Result>
  std::vector<Result> Run(
      std::size_t count,
      const std::function<sim::DeviceSpec(std::size_t)>& branch_spec,
      const std::function<Result(std::size_t, sim::DeviceSim&)>& task) {
    if (!options_.cold) {
      Status prepared = Prepare();
      if (!prepared.ok()) {
        throw std::runtime_error(prepared.ToString());
      }
    }
    return RunOrdered<Result>(
        count, options_.jobs, [this, &branch_spec, &task](std::size_t i) {
          sim::DeviceFactory factory(branch_spec(i));
          std::unique_ptr<sim::DeviceSim> device =
              options_.cold ? factory.CreateDevice()
                            : factory.CreateDeviceOn(RestoreBranchSystem(i));
          return task(i, *device);
        });
  }

  // The captured checkpoint (null before Prepare or in cold mode).
  const snapshot::SystemSnapshot* snapshot() const {
    return snapshot_.has_value() ? &*snapshot_ : nullptr;
  }
  const BranchOptions& options() const { return options_; }

  // A fresh system restored from the shared checkpoint image. Exposed for
  // the divergence audit and the snapshot bench; Run uses it per branch, and
  // AcquireSystem on a pool miss. A restore failure throws with the failing
  // shard/branch index (when given) and the checkpoint's manifest path, so a
  // corrupt image is attributable mid-campaign.
  std::unique_ptr<core::AndroidSystem> RestoreBranchSystem(
      std::optional<std::size_t> branch_index = std::nullopt) const;

  // Puts a borrowed system back in its runner's pool; with no runner (a
  // --cold prefix) it deletes the system.
  struct ReturnToPool {
    BranchRunner* runner = nullptr;
    void operator()(core::AndroidSystem* system) const;
  };
  using PooledSystem = std::unique_ptr<core::AndroidSystem, ReturnToPool>;

  // A system in the shared prefix state, for one borrower. Restores in place
  // over a system an earlier borrower handed back; on a pool miss, or if
  // that restore fails (the failed system is destroyed, never reused),
  // RestoreBranchSystem(branch_index). Under --cold, a freshly built prefix
  // that is never pooled. Dropping the handle hands the system back, so no
  // handle may outlive this runner. The pool holds at most as many systems
  // as were ever borrowed at once. Thread-safe.
  PooledSystem AcquireSystem(
      std::optional<std::size_t> branch_index = std::nullopt);

 private:
  sim::DeviceSpec prefix_;
  BranchOptions options_;
  std::optional<snapshot::SystemSnapshot> snapshot_;
  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<core::AndroidSystem>> pool_;  // handed back
};

}  // namespace jgre::harness

#endif  // JGRE_HARNESS_BRANCH_RUNNER_H_
