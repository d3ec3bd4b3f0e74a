#include "fleet/spec.h"

#include <algorithm>

#include "attack/vuln_registry.h"
#include "snapshot/serializer.h"

namespace jgre::fleet {

std::uint64_t MixFleetSeed(std::uint64_t seed, std::uint64_t index) {
  snapshot::Serializer out;
  out.U64(seed);
  out.U64(0x464C454554ULL);  // "FLEET"
  out.U64(index);
  return out.Hash();
}

std::vector<attack::AttackPlan> DefaultScenarios() {
  attack::AttackPlan benign;
  benign.name.clear();
  std::vector<attack::AttackPlan> out = {benign};
  // Four system-server interfaces: the flawed-guard toast plus the first
  // three permissionless Table-I entries (stable registry order).
  std::vector<int> ids;
  const attack::VulnSpec* toast =
      attack::FindVulnerability("notification", "enqueueToast");
  if (toast != nullptr) ids.push_back(toast->id);
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (ids.size() >= 4) break;
    if (vuln.victim != attack::VictimKind::kSystemServer) continue;
    if (!vuln.permission.empty()) continue;
    if (toast != nullptr && vuln.id == toast->id) continue;
    ids.push_back(vuln.id);
  }
  for (int id : ids) {
    attack::AttackPlan flood;
    flood.vuln_id = id;
    flood.stop_after_consecutive_denials = 0;
    out.push_back(flood);
    flood.think_time_us = 350'000;
    out.push_back(flood);
  }
  return out;
}

std::string ScenarioClass(const attack::AttackPlan& plan) {
  if (plan.name.empty()) return "benign";
  if (plan.name == "flood") {
    if (plan.vuln_id == attack::kChurnVulnId) return "churn";
    if (plan.think_time_us > 0) return "drip";
  }
  return plan.name;
}

std::vector<FleetDeviceSpec> ExpandMatrix(const FleetMatrix& matrix) {
  const std::vector<attack::AttackPlan> scenarios =
      matrix.scenarios.empty() ? DefaultScenarios() : matrix.scenarios;
  std::vector<FleetDeviceSpec> fleet;
  fleet.reserve(matrix.jgr_caps.size() * scenarios.size() *
                matrix.defense.size() * matrix.benign_apps.size());
  for (const std::size_t cap : matrix.jgr_caps) {
    for (const attack::AttackPlan& scenario : scenarios) {
      for (const defense::DefenseConfig& defense : matrix.defense) {
        for (const int apps : matrix.benign_apps) {
          FleetDeviceSpec spec;
          spec.index = fleet.size();
          spec.scenario_class = ScenarioClass(scenario);
          spec.horizon_us = matrix.horizon_us;
          attack::AttackPlan plan = scenario;
          plan.seed = MixFleetSeed(matrix.seed, spec.index);
          plan.max_calls = std::min(plan.max_calls, matrix.max_attacker_calls);

          core::SystemConfig sys;
          sys.system_server_max_jgr = cap;
          spec.device.WithSeed(matrix.seed)
              .WithScenarioSeed(plan.seed)
              .WithSystemConfig(sys)
              .WithWarmup(matrix.warmup_apps, matrix.warmup_foreground_us,
                          matrix.warmup_interaction_period_us)
              .WithBenignApps(apps)
              .WithDefense(defense)
              .WithAttack(plan);
          fleet.push_back(std::move(spec));
        }
      }
    }
  }
  return fleet;
}

}  // namespace jgre::fleet
