// FleetDeviceSpec / FleetMatrix — the heterogeneous device population of a
// fleet census.
//
// A fleet campaign does not enumerate devices by hand: it declares axes —
// JGR table caps, attack plans, defense points, benign app populations —
// and ExpandMatrix() takes their cartesian product into a deterministic
// vector of FleetDeviceSpecs. Every device boots from the same seed (so
// devices sharing a SystemConfig share one warmed boot image, see
// sim::PrefixKey) but runs a decorrelated scenario via a per-device scenario
// seed mixed from (matrix seed, device index) — never from --jobs or
// scheduling order.
//
// A FleetDeviceSpec is also a defense-matrix cell (arms::MatrixRunner): its
// sim::DeviceSpec carries an attack::AttackPlan and a defense::DefenseConfig,
// DeviceFactory builds the attacker and the mitigation stack, and the
// StopRule says whether the first incident ends the run (census) or only
// the horizon does (matrix).
#ifndef JGRE_FLEET_SPEC_H_
#define JGRE_FLEET_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "common/types.h"
#include "defense/mitigation.h"
#include "experiment/experiment.h"
#include "sim/device.h"

namespace jgre::fleet {

struct FleetMatrix {
  std::uint64_t seed = 42;
  // Shared prefix shape — identical across the whole fleet so the number of
  // distinct boot images equals the number of distinct JGR caps.
  int warmup_apps = 6;
  DurationUs warmup_foreground_us = 4'000'000;
  DurationUs warmup_interaction_period_us = 0;
  // Axes. Defaults give 4 caps x 9 scenarios x 3 defense points x 3 benign
  // populations = 324 devices from 4 boot images.
  std::vector<std::size_t> jgr_caps = {6'400, 12'800, 25'600, 51'200};
  std::vector<attack::AttackPlan> scenarios;  // empty = DefaultScenarios()
  std::vector<defense::DefenseConfig> defense = {
      {"none"},
      {"defender", true, 4'000, 12'000},
      {"defender-2k", true, 2'000, 6'000}};
  std::vector<int> benign_apps = {0, 2, 4};
  // Caps every plan's max_calls.
  int max_attacker_calls = 15'000;
  // The census window T: "soft-reboot fraction within T" is measured against
  // this horizon, and benign scenarios run until they reach it.
  DurationUs horizon_us = 60'000'000;
};

// benign (a plan named "") + {flood, drip} over four registry
// vulnerabilities. The floods never give up on denials, like the paper's
// attacker; a drip is a flood idling 350 ms after each call.
std::vector<attack::AttackPlan> DefaultScenarios();

// The census class of a plan: "benign" for no attacker, "churn" for a flood
// of kChurnVulnId, "drip" for a flood with think time, else the plan's name.
std::string ScenarioClass(const attack::AttackPlan& plan);

// One fully-resolved device of the fleet.
struct FleetDeviceSpec {
  std::size_t index = 0;
  std::string scenario_class;
  sim::DeviceSpec device;
  DurationUs horizon_us = 0;
  experiment::StopRule stop = experiment::StopRule::kFirstIncident;
};

// The deterministic cartesian expansion (caps outermost, then scenarios,
// defense points, benign populations). Output depends only on the matrix
// contents; index i's scenario seed is MixFleetSeed(matrix.seed, i).
std::vector<FleetDeviceSpec> ExpandMatrix(const FleetMatrix& matrix);

// The per-device scenario-seed derivation, exposed for tests.
std::uint64_t MixFleetSeed(std::uint64_t seed, std::uint64_t index);

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_SPEC_H_
