// MatrixRunner — the defense-vs-attack matrix (BENCH_matrix.json).
//
// Expands attacks x defense configs x operating points into one fleet of
// cells. A cell is a fleet::FleetDeviceSpec like any census device: its
// device carries the attack::AttackPlan (WithAttack) and the
// defense::DefenseConfig (WithDefense) — the paper's kill-based
// JgreDefender, a MitigationStack of modern admission policies, both, or
// neither — so sim::DeviceFactory builds its attacker and its stack, and
// fleet::FleetRunner runs it through fleet::RunDeviceScenario with
// StopRule::kHorizon. Each cell reduces to one MatrixCell:
//
//   outcome    — exhausted | killed | denied | survived (in that precedence)
//   detection  — the defender's incidents plus the follow-up hunt battery,
//                so "evaded the defender" can be cross-checked against "but
//                a hunt saw it"
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
#include <string>
#include <string_view>
#include <vector>

#include "attack/strategy.h"
#include "common/types.h"
#include "defense/mitigation.h"
#include "detect/catalog.h"
#include "fleet/aggregator.h"
#include "harness/branch_runner.h"
#include "harness/json.h"
#include "runtime/java_vm_ext.h"

namespace jgre::arms {

// The defense axis point, shared with the fleet census (e2ebench names it
// here).
using defense::DefenseConfig;

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
  attack::StrategyStats attacker;  // device.attacker (e2ebench reads it here)
  fleet::DeviceOutcome device;  // stream counters, collateral, hunt pass
};

struct MatrixResult {
  std::vector<MatrixCell> cells;  // expansion order
  std::size_t boot_images = 0;    // distinct prefix keys (deterministic)
  // Cache traffic; scheduling-dependent under --jobs > 1, so console-only.
  harness::CacheStats cache;

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
  // strategy is unknown or fails to set up, naming the cell's index.
  MatrixResult Run();

  std::size_t cell_count() const;

 private:
  ArmsMatrix matrix_;
  Options options_;
};

}  // namespace jgre::arms

#endif  // JGRE_ARMS_MATRIX_H_
