#include "fleet/runner.h"

#include <set>
#include <stdexcept>

#include "common/strings.h"
#include "detect/registry.h"
#include "harness/experiment_runner.h"
#include "obs/event_bus.h"

namespace jgre::fleet {

namespace {

// Newest victim-kJgr/kIpc events the probe keeps for the hunt pass. Bounds
// per-device memory; the activity counters it feeds rates from are full-
// stream, so only provenance slices (not verdicts) see the truncation.
constexpr std::size_t kHuntWindowCapacity = 2048;

}  // namespace

DeviceRun::DeviceRun(const FleetDeviceSpec& spec, sim::DeviceSim& device)
    : spec_(spec),
      device_(device),
      probe_(device.system().system_server_pid().value(),
             kHuntWindowCapacity) {
  out_.index = spec.index;
  out_.scenario_class = spec.scenario_class;
  device.bus().Subscribe(&probe_,
                         obs::MaskOf(obs::Category::kJgr) |
                             obs::MaskOf(obs::Category::kIpc),
                         /*pid_filter=*/-1, obs::Delivery::kBuffered);
}

DeviceRun::~DeviceRun() { device_.bus().Unsubscribe(&probe_); }

DeviceOutcome& DeviceRun::Drive(attack::AttackStrategy* attacker,
                                experiment::StopRule rule) {
  const experiment::DriveResult drive = experiment::Drive(
      device_, attacker, rule,
      device_.system().clock().NowUs() + spec_.horizon_us);
  out_.exhausted = drive.soft_rebooted;
  if (out_.exhausted) {
    out_.time_to_exhaustion_us = drive.virtual_duration_us;
    out_.exhausted_within_horizon =
        out_.time_to_exhaustion_us <= spec_.horizon_us;
  }
  out_.incident = drive.incident;
  out_.attacker_killed = drive.attacker_killed;
  out_.stopped_by_denial =
      attacker != nullptr && attacker->stats().stopped_by_denial;
  out_.virtual_duration_us = drive.virtual_duration_us;
  return out_;
}

DeviceOutcome DeviceRun::Finish(const detect::InterfaceCatalog* catalog) {
  core::AndroidSystem& system = device_.system();

  // Settle the runtimes before reducing the probe: a final collection strips
  // in-flight transient references, so the hunts below see *retention* — the
  // paper's exploitability criterion — rather than garbage the next GC would
  // have reclaimed anyway.
  system.CollectAllGarbage();

  // Unsubscribe drains the probe's staged events first — the read barrier.
  device_.bus().Unsubscribe(&probe_);
  out_.ipc_calls = probe_.ipc_calls();
  out_.jgr_adds = probe_.jgr_adds();
  out_.peak_jgr = probe_.peak_jgr();
  out_.peak_weak_jgr = probe_.peak_weak_jgr();

  // The per-device hunt pass: every trace-driven hunt in the standard
  // battery over what the probe observed (the static and fuzz hunts skip
  // themselves — no analysis report or finding list here).
  static const detect::HuntRegistry& registry = *[] {
    return new detect::HuntRegistry(detect::HuntRegistry::WithDefaultHunts());
  }();
  const std::vector<obs::TraceEvent> window = probe_.Window();
  detect::DataSources sources;
  sources.trace_events = window.data();
  sources.trace_event_count = window.size();
  sources.jgr_activity = probe_.jgr_activity();
  sources.victim_pid = probe_.victim_pid();
  sources.victim_name = "system_server";
  sources.defender = device_.defender();
  sources.descriptor_name = [&system](std::uint32_t id) {
    return system.driver().DescriptorName(id);
  };
  sources.catalog = catalog;
  out_.detections = registry.RunAll(sources, detect::Scope{});
  for (const detect::Detection& detection : out_.detections) {
    ++out_.hunt_hits[detection.hunt];
  }
  return std::move(out_);
}

DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog) {
  DeviceRun run(spec, device);
  run.Drive(device.attacker(), experiment::StopRule::kFirstIncident);
  return run.Finish(catalog);
}

FleetRunner::FleetRunner(std::vector<FleetDeviceSpec> fleet,
                         FleetOptions options)
    : fleet_(std::move(fleet)),
      options_(options),
      cache_(options_.max_images) {}

Status FleetRunner::Prepare() {
  if (prepared_) return Status::Ok();
  std::set<std::uint64_t> keys;
  key_of_.resize(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    key_of_[i] = sim::PrefixKey(fleet_[i].device);
    keys.insert(key_of_[i]);
  }
  distinct_keys_ = keys.size();
  prepared_ = true;
  return Status::Ok();
}

std::unique_ptr<core::AndroidSystem> FleetRunner::RestoreDevice(
    std::size_t index) {
  const sim::DeviceSpec& spec = fleet_[index].device;
  auto image = cache_.Get(key_of_[index], [&spec] {
    sim::DeviceFactory factory(spec);
    std::unique_ptr<core::AndroidSystem> warmed = factory.BootPrefix();
    return snapshot::SystemSnapshot::Capture(*warmed);
  });
  if (!image.ok()) {
    throw std::runtime_error(StrCat("FleetRunner (device ", index,
                                    "): boot image build failed: ",
                                    image.status().ToString()));
  }
  core::SystemConfig sys_config = spec.system_config();
  sys_config.seed = spec.seed();
  auto system = std::make_unique<core::AndroidSystem>(sys_config);
  system->Boot();
  Status restored = image.value()->RestoreInto(system.get());
  if (!restored.ok()) {
    throw std::runtime_error(StrCat("FleetRunner (device ", index,
                                    "): restore failed: ",
                                    restored.ToString()));
  }
  return system;
}

FleetResult FleetRunner::Run() {
  Status prepared = Prepare();
  if (!prepared.ok()) throw std::runtime_error(prepared.ToString());

  FleetResult result;
  result.image_count = distinct_keys_;
  result.outcomes = harness::RunOrdered<DeviceOutcome>(
      fleet_.size(), options_.jobs, [this](std::size_t i) {
        sim::DeviceFactory factory(fleet_[i].device);
        std::unique_ptr<sim::DeviceSim> device =
            factory.CreateDeviceOn(RestoreDevice(i));
        return options_.scenario_driver
                   ? options_.scenario_driver(fleet_[i], *device,
                                              options_.catalog)
                   : RunDeviceScenario(fleet_[i], *device, options_.catalog);
      });
  result.image_builds = cache_.builds();
  result.image_evictions = cache_.evictions();
  // Fold in submission order; MergeFrom-based shard folds land on the same
  // bytes (the sketch-merge invariance the tests pin).
  for (const DeviceOutcome& outcome : result.outcomes) {
    result.aggregator.Absorb(outcome);
  }
  return result;
}

}  // namespace jgre::fleet
