// MatrixRunner — the defense-vs-attack matrix (BENCH_matrix.json).
//
// Expands attacks x defense configs x operating points into one fleet of
// cells and runs each cell as a full device simulation on the fleet layer's
// warmed-boot-image infrastructure (FleetRunner + ScenarioDriver). A cell
// restores a device at its JGR-cap operating point, installs the defense
// config (the paper's kill-based JgreDefender, a MitigationStack of modern
// admission policies, both, or neither), drives its attack::AttackStrategy
// through experiment::Drive to the horizon (fleet::DeviceRun), and reduces
// to one MatrixCell:
//
//   outcome    — exhausted | killed | denied | survived (in that precedence)
//   detection  — the defender's incidents plus the follow-up hunt battery
//                (fleet::DeviceRun::Finish), so "evaded the defender" can be
//                cross-checked against "but a hunt saw it"
//   collateral — benign calls denied by mitigations, benign apps killed by
//                the defender's recovery pass
//
// Determinism: cells are expanded in a fixed order (operating points
// outermost so same-cap cells share a boot image), each cell's scenario seed
// is MixFleetSeed(matrix seed, cell index), and GridJson() contains only
// jobs-invariant fields — BENCH_matrix.json is byte-identical for any
// --jobs.
#ifndef JGRE_ARMS_MATRIX_H_
#define JGRE_ARMS_MATRIX_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "arms/mitigation.h"
#include "attack/strategy.h"
#include "common/types.h"
#include "detect/catalog.h"
#include "fleet/aggregator.h"
#include "harness/json.h"
#include "runtime/java_vm_ext.h"

namespace jgre::arms {

// Which modern mitigations a defense config stacks, with their tunings.
// backoff.watermark == 0 means "half the cell's JGR cap", resolved per cell
// — an absolute watermark would be meaningless across operating points.
struct MitigationSettings {
  bool per_uid_quota = false;
  bool table_growth_backoff = false;
  bool per_interface_rate_limit = false;
  PerUidQuota::Config quota;
  TableGrowthBackoff::Config backoff{0, 200, 256, 100'000};
  PerInterfaceRateLimit::Config rate_limit;

  bool any() const {
    return per_uid_quota || table_growth_backoff || per_interface_rate_limit;
  }
};

// One defense axis point: the §V kill-based defender at (alarm, report),
// a mitigation stack, both, or neither.
struct DefenseConfig {
  std::string name;  // axis label ("none", "defender", "defender+quota", ...)
  bool defender = false;
  std::size_t alarm_threshold = 4'000;
  std::size_t report_threshold = 12'000;
  MitigationSettings mitigations;
};

// One device operating point. Benign apps are the collateral sensors: their
// denied calls and deaths are what over-aggressive defenses cost.
struct OperatingPoint {
  std::size_t jgr_cap = rt::kGlobalsMax;
  int benign_apps = 2;
};

struct ArmsMatrix {
  std::uint64_t seed = 42;
  // Shared boot prefix (one warmed image per distinct JGR cap).
  int warmup_apps = 3;
  DurationUs warmup_foreground_us = 1'000'000;
  // Axes; an empty vector means the corresponding Default*() set.
  std::vector<attack::AttackPlan> attacks;
  std::vector<DefenseConfig> defenses;
  std::vector<OperatingPoint> points;
  int max_calls = 40'000;
  DurationUs horizon_us = 60'000'000;
};

// The five KnownStrategies() with their standard tunings.
std::vector<attack::AttackPlan> DefaultAttacks();
// none, defender(4000,12000), and defender stacked with each mitigation.
std::vector<DefenseConfig> DefaultDefenses();
// Five JGR caps (4.8k..51.2k, stock last) at 2 benign apps — five prefix
// keys, deliberately one more than the default image budget so full runs
// exercise LRU eviction.
std::vector<OperatingPoint> DefaultOperatingPoints();

// Cell verdict, in decreasing severity for the attacker's success:
//   exhausted — the victim table overflowed (soft reboot) within the horizon
//   killed    — every attacking process was dead by the end (defender won)
//   denied    — the strategy gave up after its consecutive-denial budget
//   survived  — horizon reached with the attack still nominally running
enum class CellOutcome { kExhausted, kKilled, kDenied, kSurvived };
std::string_view CellOutcomeName(CellOutcome outcome);

struct MatrixCell {
  std::size_t index = 0;
  std::string attack;
  std::string defense;
  std::size_t jgr_cap = 0;
  int benign_apps = 0;
  CellOutcome outcome = CellOutcome::kSurvived;
  attack::StrategyStats attacker;
  std::map<std::string, std::int64_t> denied_by_policy;
  fleet::DeviceOutcome device;  // stream counters, collateral, hunt pass
};

struct MatrixResult {
  std::vector<MatrixCell> cells;  // expansion order
  std::size_t boot_images = 0;    // distinct prefix keys (deterministic)
  // Cache traffic; scheduling-dependent under --jobs > 1, so console-only.
  std::uint64_t image_builds = 0;
  std::uint64_t image_evictions = 0;

  // The jobs-invariant BENCH_matrix.json body: axes plus one entry per cell
  // (outcome, attacker stats, collateral, hunt hits). Never includes the
  // cache counters above.
  harness::Json GridJson() const;
};

class MatrixRunner {
 public:
  struct Options {
    int jobs = 1;
    std::size_t image_budget = 4;  // fleet boot-image residency budget
    const detect::InterfaceCatalog* catalog = nullptr;
  };

  MatrixRunner(ArmsMatrix matrix, Options options);

  // Runs every cell; throws if a cell's device cannot be restored or its
  // strategy fails to set up, naming the cell.
  MatrixResult Run();

  std::size_t cell_count() const;

 private:
  ArmsMatrix matrix_;
  Options options_;
};

}  // namespace jgre::arms

#endif  // JGRE_ARMS_MATRIX_H_
