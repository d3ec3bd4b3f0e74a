#include "fleet/spec.h"

#include "attack/vuln_registry.h"
#include "services/safe_service.h"
#include "snapshot/serializer.h"

namespace jgre::fleet {

namespace {

const attack::VulnSpec* FindVulnById(int id) {
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (vuln.id == id) return &vuln;
  }
  return nullptr;
}

}  // namespace

const attack::VulnSpec& ChurnAttackSpec() {
  static const attack::VulnSpec spec = [] {
    attack::VulnSpec s;
    s.id = kChurnVulnId;
    s.service = "account";
    s.interface = "setCallback";
    // GenericSafeService descriptors splice the raw service name between the
    // "android.os.I"/"Service" affixes — no capitalisation.
    s.descriptor = "android.os.IaccountService";
    s.code = services::GenericSafeService::TRANSACTION_setCallback;
    s.victim = attack::VictimKind::kSystemServer;
    s.jgrs_per_call = 0;  // replace-single: the previous reference is evicted
    s.write_args = [](services::AppProcess& app, binder::Parcel& p) {
      p.WriteStrongBinder(app.NewBinder("IAccountCallback"));
    };
    return s;
  }();
  return spec;
}

std::uint64_t MixFleetSeed(std::uint64_t seed, std::uint64_t index) {
  snapshot::Serializer out;
  out.U64(seed);
  out.U64(0x464C454554ULL);  // "FLEET"
  out.U64(index);
  return out.Hash();
}

std::vector<AttackScenario> DefaultScenarios() {
  std::vector<AttackScenario> out;
  out.push_back({"benign", 0, 0});
  // Four system-server interfaces: the flawed-guard toast plus the first
  // three permissionless Table-I entries (stable registry order).
  std::vector<int> ids;
  const attack::VulnSpec* toast =
      attack::FindVulnerability("notification", "enqueueToast");
  if (toast != nullptr) ids.push_back(toast->id);
  for (const attack::VulnSpec& vuln : attack::SystemServerVulnerabilities()) {
    if (ids.size() >= 4) break;
    if (!vuln.permission.empty()) continue;
    if (toast != nullptr && vuln.id == toast->id) continue;
    ids.push_back(vuln.id);
  }
  for (int id : ids) {
    out.push_back({"flood", id, 0});
    out.push_back({"drip", id, 350'000});
  }
  return out;
}

std::vector<FleetDeviceSpec> ExpandMatrix(const FleetMatrix& matrix) {
  const std::vector<AttackScenario> scenarios =
      matrix.scenarios.empty() ? DefaultScenarios() : matrix.scenarios;
  std::vector<FleetDeviceSpec> fleet;
  fleet.reserve(matrix.jgr_caps.size() * scenarios.size() *
                matrix.defense.size() * matrix.benign_apps.size());
  std::size_t index = 0;
  for (const std::size_t cap : matrix.jgr_caps) {
    for (const AttackScenario& scenario : scenarios) {
      for (const DefensePoint& defense : matrix.defense) {
        for (const int apps : matrix.benign_apps) {
          FleetDeviceSpec spec;
          spec.index = index;
          spec.scenario_class = scenario.scenario_class;
          spec.horizon_us = matrix.horizon_us;

          core::SystemConfig sys;
          sys.system_server_max_jgr = cap;
          spec.device.WithSeed(matrix.seed)
              .WithScenarioSeed(MixFleetSeed(matrix.seed, index))
              .WithSystemConfig(sys)
              .WithWarmup(matrix.warmup_apps, matrix.warmup_foreground_us,
                          matrix.warmup_interaction_period_us)
              .WithBenignApps(apps)
              .WithMaxAttackerCalls(matrix.max_attacker_calls);
          if (defense.enabled) {
            spec.device.WithThresholds(defense.alarm_threshold,
                                       defense.report_threshold);
          }
          spec.scenario_detail = scenario.scenario_class;
          if (scenario.vuln_id == kChurnVulnId) {
            const attack::VulnSpec& churn = ChurnAttackSpec();
            spec.device.WithAttack(churn, scenario.think_time_us);
            spec.scenario_detail += ":" + churn.service + "." +
                                    churn.interface;
          } else if (scenario.vuln_id != 0) {
            const attack::VulnSpec* vuln = FindVulnById(scenario.vuln_id);
            if (vuln != nullptr) {
              spec.device.WithAttack(*vuln, scenario.think_time_us);
              spec.scenario_detail += ":" + vuln->service + "." +
                                      vuln->interface;
            }
          }
          fleet.push_back(std::move(spec));
          ++index;
        }
      }
    }
  }
  return fleet;
}

}  // namespace jgre::fleet
