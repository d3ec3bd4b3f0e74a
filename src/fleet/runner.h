// FleetRunner — the campaign service: N heterogeneous device simulations
// across the work-stealing pool, each cloned from a small set of warmed
// JGRESNAP boot images.
//
// Lifecycle per campaign:
//   1. Prepare(): group the fleet's devices by sim::PrefixKey (boot seed +
//      system config + warmup). Each distinct key gets ONE warmed boot image
//      — built via DeviceFactory::BootPrefix and captured in memory — so a
//      324-device census over 4 JGR-cap points boots exactly 4 prefixes.
//      Images live in an LRU BootImageCache: FleetOptions::max_images is a
//      residency *budget*, not a cap on distinct keys — a fleet with more
//      prefix diversity than slots just rebuilds cold keys on re-use
//      (deterministically: BootPrefix reproduces the same bytes).
//   2. Run(): harness::RunOrdered over the devices. Each task restores a
//      fresh AndroidSystem from its group's image, completes the device with
//      DeviceFactory::CreateDeviceOn, drives its scenario (flood, drip, or
//      benign-only) through experiment::Drive, and reduces to a
//      DeviceOutcome. Results land in submission order and the aggregator
//      folds them in that order, so the census is byte-identical for any
//      --jobs.
#ifndef JGRE_FLEET_RUNNER_H_
#define JGRE_FLEET_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "common/status.h"
#include "detect/catalog.h"
#include "experiment/experiment.h"
#include "fleet/aggregator.h"
#include "fleet/image_cache.h"
#include "fleet/spec.h"
#include "snapshot/snapshot.h"

namespace jgre::fleet {

// Replaces RunDeviceScenario for a device: given the resolved spec and a
// freshly restored device, run the scenario and reduce it to a
// DeviceOutcome. The arms-race MatrixRunner uses this to run
// AttackStrategy/MitigationPolicy cells on fleet infrastructure.
using ScenarioDriver = std::function<DeviceOutcome(
    const FleetDeviceSpec&, sim::DeviceSim&, const detect::InterfaceCatalog*)>;

struct FleetOptions {
  int jobs = 1;
  // Residency budget for warmed boot images (LRU eviction past it). More
  // distinct prefix keys than this is fine — cold keys rebuild on re-use.
  std::size_t max_images = 4;
  // Optional (descriptor, code) -> interface identity table for the per-
  // device hunt pass. With it, trace-hunt detections carry the code-model
  // interface ids the static and fuzz hunts use, so a census consumer can
  // fuse across modalities; without it they key on "<descriptor>#<code>".
  const detect::InterfaceCatalog* catalog = nullptr;
  // Custom per-device drive loop; default runs RunDeviceScenario.
  ScenarioDriver scenario_driver;
};

struct FleetResult {
  FleetAggregator aggregator;
  std::vector<DeviceOutcome> outcomes;  // device (submission) order
  // Distinct prefix keys the fleet used. Deterministic, unlike the rebuild
  // counters below, which depend on worker arrival order when the fleet
  // overflows the image budget.
  std::size_t image_count = 0;
  std::uint64_t image_builds = 0;
  std::uint64_t image_evictions = 0;
};

// One device's run, shared by every scenario driver: construction
// subscribes the census probe, Drive runs experiment::Drive to the spec's
// horizon, and Finish reduces to a DeviceOutcome. A driver installs its
// mitigations and strategy before Drive and tallies its own fields into the
// outcome before Finish.
class DeviceRun {
 public:
  DeviceRun(const FleetDeviceSpec& spec, sim::DeviceSim& device);
  // Unsubscribes the probe if Finish never ran (a driver threw).
  ~DeviceRun();
  DeviceRun(const DeviceRun&) = delete;
  DeviceRun& operator=(const DeviceRun&) = delete;

  // Drives `attacker` (null: benign apps only) and fills the outcome's
  // exhaustion, incident, kill, denial-stop and duration fields.
  DeviceOutcome& Drive(attack::AttackStrategy* attacker,
                       experiment::StopRule rule);

  // Settle-GCs the runtimes, drains and unsubscribes the probe, fills the
  // stream counters, and runs the trace-driven hunt battery over the
  // probe's retained window.
  DeviceOutcome Finish(const detect::InterfaceCatalog* catalog);

 private:
  const FleetDeviceSpec& spec_;
  sim::DeviceSim& device_;
  DeviceProbe probe_;
  DeviceOutcome out_;
};

// One census device: its own attacker (flood or drip; none for benign-only
// devices) driven until the first incident, the attacker finishing, a soft
// reboot, or the horizon. Exposed so tests can drive a single device
// without a runner.
DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog =
                                    nullptr);

class FleetRunner {
 public:
  FleetRunner(std::vector<FleetDeviceSpec> fleet, FleetOptions options);

  // Maps every device to its prefix key. Idempotent; Run() calls it
  // implicitly. Images themselves build lazily on first use.
  Status Prepare();

  // Runs every device; throws (like BranchRunner) if a restore fails
  // mid-campaign, naming the device index.
  FleetResult Run();

  // Distinct prefix keys after Prepare() (0 before).
  std::size_t image_count() const { return distinct_keys_; }
  const std::vector<FleetDeviceSpec>& fleet() const { return fleet_; }
  const BootImageCache& image_cache() const { return cache_; }

 private:
  std::unique_ptr<core::AndroidSystem> RestoreDevice(std::size_t index);

  std::vector<FleetDeviceSpec> fleet_;
  FleetOptions options_;
  bool prepared_ = false;
  BootImageCache cache_;
  std::vector<std::uint64_t> key_of_;  // device index -> prefix key
  std::size_t distinct_keys_ = 0;
};

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_RUNNER_H_
