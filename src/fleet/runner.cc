#include "fleet/runner.h"

#include <set>
#include <stdexcept>

#include "attack/strategy.h"
#include "defense/mitigation.h"
#include "detect/registry.h"
#include "experiment/experiment.h"
#include "obs/event_bus.h"

namespace jgre::fleet {

DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog) {
  core::AndroidSystem& system = device.system();
  attack::AttackStrategy* attacker = device.attacker();
  DeviceOutcome out;
  out.index = spec.index;
  out.scenario_class = spec.scenario_class;

  DeviceProbe probe(device.bus(), system.system_server_pid().value());
  const experiment::DriveResult drive =
      experiment::Drive(device, attacker, spec.stop,
                        system.clock().NowUs() + spec.horizon_us);
  out.exhausted = drive.soft_rebooted;
  if (out.exhausted) {
    out.time_to_exhaustion_us = drive.virtual_duration_us;
    out.exhausted_within_horizon =
        out.time_to_exhaustion_us <= spec.horizon_us;
  }
  out.incident = drive.incident;
  out.attacker_killed = drive.attacker_killed;
  out.virtual_duration_us = drive.virtual_duration_us;

  // Settle the runtimes before reducing the probe: a final collection strips
  // in-flight transient references, so the hunts below see *retention* — the
  // paper's exploitability criterion — rather than garbage the next GC would
  // have reclaimed anyway.
  system.CollectAllGarbage();
  probe.Detach();
  out.ipc_calls = probe.ipc_calls();
  out.jgr_adds = probe.jgr_adds();
  out.peak_jgr = probe.peak_jgr();
  out.peak_weak_jgr = probe.peak_weak_jgr();

  // Collateral: what the stack denied and the defender killed that was not
  // the attacker's.
  std::vector<Uid> attacker_uids;
  std::set<std::string> attacker_packages;
  if (attacker != nullptr) {
    out.attacker = attacker->stats();
    attacker_uids = attacker->attacker_uids();
    const std::vector<std::string> packages = attacker->attacker_packages();
    attacker_packages.insert(packages.begin(), packages.end());
  }
  if (const defense::MitigationStack* stack = device.mitigations();
      stack != nullptr) {
    for (const Uid uid : attacker_uids) {
      out.denied_attacker_calls += stack->DeniedForUid(uid);
    }
    out.denied_benign_calls = stack->total_denied() - out.denied_attacker_calls;
    out.denied_by_policy.insert(stack->denied_by_policy().begin(),
                                stack->denied_by_policy().end());
  }
  if (const defense::JgreDefender* defender = device.defender();
      defender != nullptr) {
    for (const auto& incident : defender->incidents()) {
      for (const std::string& package : incident.killed_packages) {
        if (attacker_packages.count(package) == 0) ++out.benign_kills;
      }
    }
  }

  // The per-device hunt pass: every trace-driven hunt in the standard
  // battery over what the probe observed (the static and fuzz hunts skip
  // themselves — no analysis report or finding list here).
  static const detect::HuntRegistry& registry = *[] {
    return new detect::HuntRegistry(detect::HuntRegistry::WithDefaultHunts());
  }();
  const std::vector<obs::TraceEvent> window = probe.Window();
  detect::DataSources sources;
  sources.trace_events = window.data();
  sources.trace_event_count = window.size();
  sources.jgr_activity = probe.jgr_activity();
  sources.victim_pid = probe.victim_pid();
  sources.victim_name = "system_server";
  sources.defender = device.defender();
  sources.descriptor_name = [&system](std::uint32_t id) {
    return system.driver().DescriptorName(id);
  };
  sources.catalog = catalog;
  out.detections = registry.RunAll(sources, detect::Scope{});
  for (const detect::Detection& detection : out.detections) {
    ++out.hunt_hits[detection.hunt];
  }
  return out;
}

FleetRunner::FleetRunner(std::vector<FleetDeviceSpec> fleet,
                         FleetOptions options)
    : fleet_(std::move(fleet)),
      options_(std::move(options)),
      cache_(options_.jobs, options_.max_images) {}

Status FleetRunner::Prepare() {
  if (prepared_) return Status::Ok();
  std::set<std::uint64_t> keys;
  for (const FleetDeviceSpec& spec : fleet_) {
    keys.insert(sim::PrefixKey(spec.device));
  }
  distinct_keys_ = keys.size();
  prepared_ = true;
  return Status::Ok();
}

FleetResult FleetRunner::Run() {
  Status prepared = Prepare();
  if (!prepared.ok()) throw std::runtime_error(prepared.ToString());

  FleetResult result;
  result.image_count = distinct_keys_;
  result.outcomes = cache_.Run<DeviceOutcome>(
      fleet_.size(), [this](std::size_t i) { return fleet_[i].device; },
      [this](std::size_t i, sim::DeviceSim& device) {
        return options_.scenario_driver
                   ? options_.scenario_driver(fleet_[i], device,
                                              options_.catalog)
                   : RunDeviceScenario(fleet_[i], device, options_.catalog);
      });
  result.cache = cache_.stats();
  // Fold in submission order; MergeFrom-based shard folds land on the same
  // bytes (the sketch-merge invariance the tests pin).
  for (const DeviceOutcome& outcome : result.outcomes) {
    result.aggregator.Absorb(outcome);
  }
  return result;
}

}  // namespace jgre::fleet
