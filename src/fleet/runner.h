// FleetRunner — the campaign service: N heterogeneous device simulations
// across the work-stealing pool, each cloned from a small set of warmed
// JGRESNAP boot images.
//
// Lifecycle per campaign:
//   1. Prepare(): count the fleet's distinct sim::PrefixKeys (boot seed +
//      system config + warmup). Each key gets ONE warmed boot image, so a
//      324-device census over 4 JGR-cap points boots exactly 4 prefixes.
//   2. Run(): the devices run through a harness::BranchRunner, the warm-
//      image cache: FleetOptions::max_images is its residency *budget*, not
//      a cap on distinct keys (a fleet with more keys than slots rebuilds
//      evicted images on re-use, deterministically). Each device is built
//      with DeviceFactory::CreateDeviceOn on a system restored to its key's
//      image (in place over a system an earlier device handed back, when
//      one is idle), which also sets up its attacker and mitigation stack;
//      RunDeviceScenario then drives it through experiment::Drive under
//      its StopRule and reduces it to a DeviceOutcome. Census devices and
//      defense-matrix cells run this same path. Results land in submission
//      order and the aggregator folds them in that order, so the census is
//      byte-identical for any --jobs.
#ifndef JGRE_FLEET_RUNNER_H_
#define JGRE_FLEET_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "detect/catalog.h"
#include "fleet/aggregator.h"
#include "fleet/spec.h"
#include "harness/branch_runner.h"

namespace jgre::fleet {

// Runs one device in place of RunDeviceScenario: given the resolved spec
// and a freshly restored device, run the scenario and reduce it to a
// DeviceOutcome. A driver wraps RunDeviceScenario, for example to time each
// device.
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
  // Wraps RunDeviceScenario for each device; unset runs it directly.
  ScenarioDriver scenario_driver;
};

struct FleetResult {
  FleetAggregator aggregator;
  std::vector<DeviceOutcome> outcomes;  // device (submission) order
  // Distinct prefix keys the fleet used. Deterministic, unlike the cache
  // counters, which depend on worker arrival order.
  std::size_t image_count = 0;
  harness::CacheStats cache;
};

// One device, census device or matrix cell alike. Subscribes the census
// probe, drives the device's own attacker (none for benign-only devices)
// with experiment::Drive under spec.stop until the horizon, and reduces the
// run to a DeviceOutcome: the drive's verdicts, the attacker's stats, the
// mitigation stack's denials split by issuer and by policy, the benign apps
// the defender killed, the probe's stream counters after a settling GC,
// and the trace-driven hunt battery over the probe's retained window.
// Exposed so tests can drive a single device without a runner.
DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog =
                                    nullptr);

class FleetRunner {
 public:
  FleetRunner(std::vector<FleetDeviceSpec> fleet, FleetOptions options);

  // Counts the fleet's distinct prefix keys. Idempotent; Run() calls it
  // implicitly. Images themselves build lazily on first use.
  Status Prepare();

  // Runs every device; throws (from BranchRunner) if a restore fails
  // mid-campaign or a device's attacker cannot be set up, naming the
  // device index.
  FleetResult Run();

  // Distinct prefix keys after Prepare() (0 before).
  std::size_t image_count() const { return distinct_keys_; }
  const std::vector<FleetDeviceSpec>& fleet() const { return fleet_; }

 private:
  std::vector<FleetDeviceSpec> fleet_;
  FleetOptions options_;
  bool prepared_ = false;
  harness::BranchRunner cache_;
  std::size_t distinct_keys_ = 0;
};

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_RUNNER_H_
