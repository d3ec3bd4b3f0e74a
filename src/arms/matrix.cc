#include "arms/matrix.h"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/strings.h"
#include "fleet/runner.h"
#include "fleet/spec.h"

namespace jgre::arms {

namespace {

// Per-cell extras the ScenarioDriver computes beyond the DeviceOutcome.
// Indexed by cell; each slot is written by exactly one worker task.
struct CellExtra {
  CellOutcome outcome = CellOutcome::kSurvived;
  attack::StrategyStats attacker;
  std::map<std::string, std::int64_t> denied_by_policy;
};

struct CellDesc {
  attack::AttackPlan plan;
  DefenseConfig defense;
  OperatingPoint point;
};

std::unique_ptr<MitigationStack> BuildStack(core::AndroidSystem& system,
                                            const MitigationSettings& set,
                                            std::size_t jgr_cap) {
  if (!set.any()) return nullptr;
  MitigationStack::Config config;
  config.victim = system.system_server_pid();
  auto stack = std::make_unique<MitigationStack>(&system, config);
  if (set.per_uid_quota) {
    stack->Add(std::make_unique<PerUidQuota>(set.quota));
  }
  if (set.table_growth_backoff) {
    TableGrowthBackoff::Config backoff = set.backoff;
    if (backoff.watermark == 0) backoff.watermark = jgr_cap / 2;
    stack->Add(std::make_unique<TableGrowthBackoff>(backoff));
  }
  if (set.per_interface_rate_limit) {
    stack->Add(std::make_unique<PerInterfaceRateLimit>(set.rate_limit));
  }
  stack->Install();
  return stack;
}

fleet::DeviceOutcome RunCell(const CellDesc& cell,
                             const fleet::FleetDeviceSpec& spec,
                             sim::DeviceSim& device,
                             const detect::InterfaceCatalog* catalog,
                             CellExtra* extra) {
  core::AndroidSystem& system = device.system();
  // The probe subscribes before the mitigations and the strategy install.
  fleet::DeviceRun run(spec, device);
  std::unique_ptr<MitigationStack> stack =
      BuildStack(system, cell.defense.mitigations, cell.point.jgr_cap);
  std::unique_ptr<attack::AttackStrategy> strategy =
      attack::MakeStrategy(cell.plan);
  if (strategy == nullptr) {
    throw std::runtime_error(
        StrCat("MatrixRunner (cell ", spec.index, "): unknown strategy '",
               cell.plan.name, "'"));
  }
  if (Status setup = strategy->Setup(system); !setup.ok()) {
    throw std::runtime_error(StrCat("MatrixRunner (cell ", spec.index, ", ",
                                    cell.plan.name, "): setup failed: ",
                                    setup.ToString()));
  }

  // Unlike the census, an incident does NOT end the cell: the defender's
  // recovery (killing issuers) is exactly the defense-vs-attack interaction
  // the matrix measures, and the strategy reports itself done when every
  // issuer is dead or its denial budget is spent.
  fleet::DeviceOutcome& out =
      run.Drive(strategy.get(), experiment::StopRule::kHorizon);

  if (stack != nullptr) {
    for (const Uid uid : strategy->attacker_uids()) {
      out.denied_attacker_calls += stack->DeniedForUid(uid);
    }
    out.denied_benign_calls = stack->total_denied() - out.denied_attacker_calls;
  }
  if (const defense::JgreDefender* defender = device.defender();
      defender != nullptr) {
    const std::vector<std::string> packages = strategy->attacker_packages();
    const std::set<std::string> attacker_set(packages.begin(), packages.end());
    for (const auto& incident : defender->incidents()) {
      for (const std::string& package : incident.killed_packages) {
        if (attacker_set.count(package) == 0) ++out.benign_kills;
      }
    }
  }

  extra->attacker = strategy->stats();
  if (stack != nullptr) extra->denied_by_policy = stack->denied_by_policy();
  extra->outcome = out.exhausted ? CellOutcome::kExhausted
                   : out.attacker_killed
                       ? CellOutcome::kKilled
                       : out.stopped_by_denial ? CellOutcome::kDenied
                                               : CellOutcome::kSurvived;
  return run.Finish(catalog);
}

}  // namespace

std::vector<attack::AttackPlan> DefaultAttacks() {
  std::vector<attack::AttackPlan> attacks;
  for (const std::string& name : attack::KnownStrategies()) {
    attack::AttackPlan plan;
    plan.name = name;
    attacks.push_back(std::move(plan));
  }
  return attacks;
}

std::vector<DefenseConfig> DefaultDefenses() {
  std::vector<DefenseConfig> defenses;
  DefenseConfig none;
  none.name = "none";
  defenses.push_back(none);
  DefenseConfig defender;
  defender.name = "defender";
  defender.defender = true;
  defenses.push_back(defender);
  DefenseConfig quota = defender;
  quota.name = "defender+quota";
  quota.mitigations.per_uid_quota = true;
  defenses.push_back(quota);
  DefenseConfig backoff = defender;
  backoff.name = "defender+backoff";
  backoff.mitigations.table_growth_backoff = true;
  defenses.push_back(backoff);
  DefenseConfig rate = defender;
  rate.name = "defender+rate_limit";
  rate.mitigations.per_interface_rate_limit = true;
  defenses.push_back(rate);
  return defenses;
}

std::vector<OperatingPoint> DefaultOperatingPoints() {
  return {{4'800, 2}, {6'400, 2}, {12'800, 2}, {25'600, 2}, {51'200, 2}};
}

std::string_view CellOutcomeName(CellOutcome outcome) {
  switch (outcome) {
    case CellOutcome::kExhausted:
      return "exhausted";
    case CellOutcome::kKilled:
      return "killed";
    case CellOutcome::kDenied:
      return "denied";
    case CellOutcome::kSurvived:
      return "survived";
  }
  return "unknown";
}

MatrixRunner::MatrixRunner(ArmsMatrix matrix, Options options)
    : matrix_(std::move(matrix)), options_(options) {
  if (matrix_.attacks.empty()) matrix_.attacks = DefaultAttacks();
  if (matrix_.defenses.empty()) matrix_.defenses = DefaultDefenses();
  if (matrix_.points.empty()) matrix_.points = DefaultOperatingPoints();
}

std::size_t MatrixRunner::cell_count() const {
  return matrix_.points.size() * matrix_.attacks.size() *
         matrix_.defenses.size();
}

MatrixResult MatrixRunner::Run() {
  // Expansion: points outermost so consecutive cells share a boot image
  // (one prefix key per distinct JGR cap), then attacks, then defenses.
  std::vector<CellDesc> cells;
  std::vector<fleet::FleetDeviceSpec> specs;
  cells.reserve(cell_count());
  specs.reserve(cell_count());
  for (const OperatingPoint& point : matrix_.points) {
    for (const attack::AttackPlan& plan : matrix_.attacks) {
      for (const DefenseConfig& defense : matrix_.defenses) {
        const std::size_t index = cells.size();
        CellDesc cell;
        cell.plan = plan;
        cell.plan.seed = fleet::MixFleetSeed(matrix_.seed, index);
        cell.plan.max_calls = std::min(cell.plan.max_calls, matrix_.max_calls);
        cell.defense = defense;
        cell.point = point;

        core::SystemConfig sys;
        sys.system_server_max_jgr = point.jgr_cap;
        fleet::FleetDeviceSpec spec;
        spec.index = index;
        spec.scenario_class = plan.name;
        spec.scenario_detail = plan.name + "|" + defense.name;
        spec.horizon_us = matrix_.horizon_us;
        spec.device.WithSeed(matrix_.seed)
            .WithScenarioSeed(cell.plan.seed)
            .WithSystemConfig(sys)
            .WithWarmup(matrix_.warmup_apps, matrix_.warmup_foreground_us)
            .WithBenignApps(point.benign_apps)
            .WithMaxAttackerCalls(matrix_.max_calls);
        if (defense.defender) {
          spec.device.WithThresholds(defense.alarm_threshold,
                                     defense.report_threshold);
        }
        cells.push_back(std::move(cell));
        specs.push_back(std::move(spec));
      }
    }
  }

  std::vector<CellExtra> extras(cells.size());
  fleet::FleetOptions options;
  options.jobs = options_.jobs;
  options.max_images = options_.image_budget;
  options.catalog = options_.catalog;
  options.scenario_driver = [&cells, &extras](
                                const fleet::FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog) {
    return RunCell(cells[spec.index], spec, device, catalog,
                   &extras[spec.index]);
  };
  fleet::FleetRunner runner(std::move(specs), options);
  fleet::FleetResult fleet_result = runner.Run();

  MatrixResult result;
  result.boot_images = fleet_result.image_count;
  result.cache = fleet_result.cache;
  result.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    MatrixCell cell;
    cell.index = i;
    cell.attack = cells[i].plan.name;
    cell.defense = cells[i].defense.name;
    cell.jgr_cap = cells[i].point.jgr_cap;
    cell.benign_apps = cells[i].point.benign_apps;
    cell.outcome = extras[i].outcome;
    cell.attacker = extras[i].attacker;
    cell.denied_by_policy = std::move(extras[i].denied_by_policy);
    cell.device = std::move(fleet_result.outcomes[i]);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

harness::Json MatrixResult::GridJson() const {
  // Axis vectors reconstructed from the cells (insertion order preserved);
  // everything here is a pure function of the matrix contents.
  std::vector<std::string> attacks;
  std::vector<std::string> defenses;
  std::vector<std::size_t> caps;
  for (const MatrixCell& cell : cells) {
    if (std::find(attacks.begin(), attacks.end(), cell.attack) ==
        attacks.end()) {
      attacks.push_back(cell.attack);
    }
    if (std::find(defenses.begin(), defenses.end(), cell.defense) ==
        defenses.end()) {
      defenses.push_back(cell.defense);
    }
    if (std::find(caps.begin(), caps.end(), cell.jgr_cap) == caps.end()) {
      caps.push_back(cell.jgr_cap);
    }
  }
  harness::Json attacks_json = harness::Json::Array();
  for (const std::string& name : attacks) attacks_json.Push(name);
  harness::Json defenses_json = harness::Json::Array();
  for (const std::string& name : defenses) defenses_json.Push(name);
  harness::Json caps_json = harness::Json::Array();
  for (const std::size_t cap : caps) caps_json.Push(cap);

  harness::Json cells_json = harness::Json::Array();
  for (const MatrixCell& cell : cells) {
    harness::Json hunts = harness::Json::Object();
    for (const auto& [hunt, hits] : cell.device.hunt_hits) {
      hunts.Set(hunt, hits);
    }
    harness::Json by_policy = harness::Json::Object();
    for (const auto& [policy, denied] : cell.denied_by_policy) {
      by_policy.Set(policy, denied);
    }
    cells_json.Push(
        harness::Json::Object()
            .Set("attack", cell.attack)
            .Set("defense", cell.defense)
            .Set("jgr_cap", cell.jgr_cap)
            .Set("benign_apps", cell.benign_apps)
            .Set("outcome", CellOutcomeName(cell.outcome))
            .Set("exhausted", cell.device.exhausted)
            .Set("time_to_exhaustion_us", cell.device.time_to_exhaustion_us)
            .Set("incident", cell.device.incident)
            .Set("attacker_killed", cell.device.attacker_killed)
            .Set("stopped_by_denial", cell.device.stopped_by_denial)
            .Set("calls_issued", cell.attacker.calls_issued)
            .Set("calls_ok", cell.attacker.calls_ok)
            .Set("calls_denied", cell.attacker.calls_denied)
            .Set("calls_failed", cell.attacker.calls_failed)
            .Set("denied_attacker_calls", cell.device.denied_attacker_calls)
            .Set("denied_benign_calls", cell.device.denied_benign_calls)
            .Set("benign_kills", cell.device.benign_kills)
            .Set("peak_jgr", cell.device.peak_jgr)
            .Set("peak_weak_jgr", cell.device.peak_weak_jgr)
            .Set("ipc_calls", cell.device.ipc_calls)
            .Set("denied_by_policy", std::move(by_policy))
            .Set("hunt_hits", std::move(hunts)));
  }
  return harness::Json::Object()
      .Set("attacks", std::move(attacks_json))
      .Set("defenses", std::move(defenses_json))
      .Set("jgr_caps", std::move(caps_json))
      .Set("cells_total", cells.size())
      .Set("boot_images", boot_images)
      .Set("cells", std::move(cells_json));
}

}  // namespace jgre::arms
