// FleetDeviceSpec / FleetMatrix — the heterogeneous device population of a
// fleet census.
//
// A fleet campaign does not enumerate devices by hand: it declares axes —
// JGR table caps, defense threshold points, attack scenarios, benign app
// populations — and ExpandMatrix() takes their cartesian product into a
// deterministic vector of FleetDeviceSpecs. Every device boots from the same
// seed (so devices sharing a SystemConfig share one warmed boot image, see
// sim::PrefixKey) but runs a decorrelated scenario via a per-device scenario
// seed mixed from (matrix seed, device index) — never from --jobs or
// scheduling order.
#ifndef JGRE_FLEET_SPEC_H_
#define JGRE_FLEET_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "attack/vuln_registry.h"
#include "common/types.h"
#include "sim/device.h"

namespace jgre::fleet {

// One attack scenario axis point. Class "benign" runs no attacker at all;
// "flood" steps the attacker back-to-back; "drip" inserts think time between
// calls (the slow-drip evasion profile from the paper's §VI discussion). The
// think time rides DeviceSpec::WithAttack into the device's flood strategy.
struct AttackScenario {
  std::string scenario_class;  // "benign" | "flood" | "drip" | "churn"
  int vuln_id = 0;             // registry id (attack::VulnSpec::id); 0 = none
  DurationUs think_time_us = 0;
};

// Sentinel vuln_id for the synthetic churn scenario: not a registry
// vulnerability (replace-single slots are sift rule 4's *non*-exploitable
// class), but flooding one with fresh binders churns the victim's JGR table
// — every call adds a reference and evicts the previous one, so net growth
// stays ~zero while table bandwidth burns. The follow-up death-churn hunt
// exists to catch exactly this profile.
inline constexpr int kChurnVulnId = -1;

// The spec behind kChurnVulnId: flood a generic safe service's setCallback
// (member-variable slot) with a fresh callback binder per call.
const attack::VulnSpec& ChurnAttackSpec();

// One defense axis point: disabled, or enabled at (alarm, report) thresholds.
struct DefensePoint {
  bool enabled = false;
  std::size_t alarm_threshold = 0;
  std::size_t report_threshold = 0;
};

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
  std::vector<AttackScenario> scenarios;  // empty = DefaultScenarios()
  std::vector<DefensePoint> defense = {{false, 0, 0},
                                       {true, 4'000, 12'000},
                                       {true, 2'000, 6'000}};
  std::vector<int> benign_apps = {0, 2, 4};
  int max_attacker_calls = 15'000;
  // The census window T: "soft-reboot fraction within T" is measured against
  // this horizon, and benign scenarios run until they reach it.
  DurationUs horizon_us = 60'000'000;
};

// benign + {flood, drip} over four registry vulnerabilities.
std::vector<AttackScenario> DefaultScenarios();

// One fully-resolved device of the fleet.
struct FleetDeviceSpec {
  std::size_t index = 0;
  std::string scenario_class;
  std::string scenario_detail;  // e.g. "flood:notification.enqueueToast"
  sim::DeviceSpec device;
  DurationUs horizon_us = 0;
};

// The deterministic cartesian expansion (caps outermost, then scenarios,
// defense points, benign populations). Output depends only on the matrix
// contents; index i's scenario seed is MixFleetSeed(matrix.seed, i).
std::vector<FleetDeviceSpec> ExpandMatrix(const FleetMatrix& matrix);

// The per-device scenario-seed derivation, exposed for tests.
std::uint64_t MixFleetSeed(std::uint64_t seed, std::uint64_t index);

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_SPEC_H_
