// Fleet-campaign tests: QuantileSketch merge-order invariance (the property
// that makes the census independent of how devices were sharded across
// workers), deterministic FleetMatrix expansion with decorrelated per-device
// scenario seeds, and an end-to-end small fleet — byte-identical census for
// any --jobs, cloned from one warmed boot image per JGR-cap point.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/aggregator.h"
#include "fleet/runner.h"
#include "fleet/sketch.h"
#include "fleet/spec.h"
#include "sim/device.h"
#include "snapshot/serializer.h"

namespace jgre {
namespace {

// --- QuantileSketch ---------------------------------------------------------

TEST(QuantileSketchTest, BinsCoverTheFullRangeMonotonically) {
  EXPECT_EQ(fleet::QuantileSketch::BinOf(0), 0);
  std::uint64_t previous_bound = 0;
  int previous_bin = 0;
  for (std::uint64_t value = 1; value != 0; value <<= 1) {
    const int bin = fleet::QuantileSketch::BinOf(value);
    EXPECT_GT(bin, previous_bin) << "value " << value;
    const std::uint64_t bound = fleet::QuantileSketch::BinLowerBound(bin);
    EXPECT_LE(bound, value);
    EXPECT_GE(bound, previous_bound);
    previous_bin = bin;
    previous_bound = bound;
  }
}

TEST(QuantileSketchTest, QuantilesTrackExactValuesWithinRelativeError) {
  fleet::QuantileSketch sketch;
  std::vector<std::uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.UniformU64(50'000'000) + 1;
    values.push_back(v);
    sketch.Add(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(sketch.count(), values.size());
  EXPECT_EQ(sketch.min_value(), values.front());
  EXPECT_EQ(sketch.max_value(), values.back());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const std::uint64_t approx = sketch.Quantile(q);
    // One sub-bucket of slack on each side: ~12.5% relative error.
    EXPECT_LE(approx, exact) << "q=" << q;
    EXPECT_GE(static_cast<double>(approx), 0.85 * exact) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIsOrderInvariant) {
  // Build 7 shards with very different value distributions.
  std::vector<fleet::QuantileSketch> shards(7);
  Rng rng(42);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < 500; ++i) {
      shards[s].Add(rng.UniformU64(1ULL << (8 + 6 * s)) + s);
    }
  }
  // Merge them in several permutations, including a tree-shaped fold.
  const auto merge_in_order = [&](std::vector<std::size_t> order) {
    fleet::QuantileSketch out;
    for (std::size_t i : order) out.Merge(shards[i]);
    return out;
  };
  const fleet::QuantileSketch forward = merge_in_order({0, 1, 2, 3, 4, 5, 6});
  const fleet::QuantileSketch reverse = merge_in_order({6, 5, 4, 3, 2, 1, 0});
  const fleet::QuantileSketch shuffled = merge_in_order({3, 0, 6, 2, 5, 1, 4});
  fleet::QuantileSketch tree_left, tree_right, tree;
  for (std::size_t i : {0u, 1u, 2u}) tree_left.Merge(shards[i]);
  for (std::size_t i : {3u, 4u, 5u, 6u}) tree_right.Merge(shards[i]);
  tree.Merge(tree_right);
  tree.Merge(tree_left);

  const std::vector<const fleet::QuantileSketch*> others = {&reverse,
                                                            &shuffled, &tree};
  for (const fleet::QuantileSketch* other : others) {
    EXPECT_EQ(forward.count(), other->count());
    EXPECT_EQ(forward.sum(), other->sum());
    EXPECT_EQ(forward.min_value(), other->min_value());
    EXPECT_EQ(forward.max_value(), other->max_value());
    for (int permille = 0; permille <= 1000; permille += 25) {
      EXPECT_EQ(forward.Quantile(permille / 1000.0),
                other->Quantile(permille / 1000.0))
          << "q=" << permille / 1000.0;
    }
  }
}

TEST(QuantileSketchTest, MergingAnEmptyShardIsIdentity) {
  // A worker whose shard got no devices still contributes a sketch; folding
  // it in must not disturb the aggregate (the min sentinel in particular).
  fleet::QuantileSketch populated;
  for (std::uint64_t v : {5u, 900u, 42u, 31'337u}) populated.Add(v);
  const std::uint64_t count = populated.count();
  const std::uint64_t sum = populated.sum();
  const std::uint64_t p50 = populated.Quantile(0.5);

  fleet::QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min_value(), 0u);
  EXPECT_EQ(empty.max_value(), 0u);
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  populated.Merge(empty);
  EXPECT_EQ(populated.count(), count);
  EXPECT_EQ(populated.sum(), sum);
  EXPECT_EQ(populated.min_value(), 5u);
  EXPECT_EQ(populated.max_value(), 31'337u);
  EXPECT_EQ(populated.Quantile(0.5), p50);

  // Merging into an empty sketch adopts the other side wholesale.
  fleet::QuantileSketch adopted;
  adopted.Merge(populated);
  EXPECT_EQ(adopted.count(), count);
  EXPECT_EQ(adopted.min_value(), 5u);
  EXPECT_EQ(adopted.max_value(), 31'337u);
  EXPECT_EQ(adopted.Quantile(0.5), p50);

  // Empty ⊕ empty stays empty, sentinel intact.
  fleet::QuantileSketch both;
  both.Merge(empty);
  EXPECT_EQ(both.count(), 0u);
  EXPECT_EQ(both.min_value(), 0u);
  EXPECT_EQ(both.Quantile(1.0), 0u);
}

TEST(QuantileSketchTest, TopBinAbsorbsTheLargestOctave) {
  // The last sub-bucket of octave 63 is the sketch's overflow end: the
  // maximum u64 must land in bin kBins-1, not index past the array, and
  // quantiles over such values must clamp to the exact max.
  const std::uint64_t top = ~0ULL;
  EXPECT_EQ(fleet::QuantileSketch::BinOf(top),
            fleet::QuantileSketch::kBins - 1);
  EXPECT_LE(fleet::QuantileSketch::BinLowerBound(
                fleet::QuantileSketch::kBins - 1),
            top);

  fleet::QuantileSketch sketch;
  sketch.Add(top);
  sketch.Add(top - 1);
  sketch.Add(1);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.min_value(), 1u);
  EXPECT_EQ(sketch.max_value(), top);
  // Both huge values share the top bin; the reported quantile is that bin's
  // lower bound clamped into [min, max] — never above the exact max, and
  // within the sketch's one-sub-bucket (12.5%) relative error below it.
  EXPECT_LE(sketch.Quantile(0.5), top);
  EXPECT_LE(sketch.Quantile(1.0), top);
  EXPECT_GE(sketch.Quantile(1.0), top - (top >> 3));
  EXPECT_EQ(sketch.Quantile(0.0), 1u);
}

TEST(QuantileSketchTest, ThreeShardMergeIsAssociative) {
  // (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) must agree bin for bin — this is the
  // property that lets the census fold worker shards pairwise in whatever
  // shape the join tree takes.
  std::vector<fleet::QuantileSketch> shards(3);
  Rng rng(99);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < 400; ++i) {
      shards[s].Add(rng.UniformU64(1ULL << (4 + 20 * s)));
    }
  }

  fleet::QuantileSketch left = shards[0];  // (a ⊕ b) ⊕ c
  left.Merge(shards[1]);
  left.Merge(shards[2]);
  fleet::QuantileSketch bc = shards[1];  // a ⊕ (b ⊕ c)
  bc.Merge(shards[2]);
  fleet::QuantileSketch right = shards[0];
  right.Merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  EXPECT_EQ(left.min_value(), right.min_value());
  EXPECT_EQ(left.max_value(), right.max_value());
  for (int permille = 0; permille <= 1000; permille += 10) {
    EXPECT_EQ(left.Quantile(permille / 1000.0),
              right.Quantile(permille / 1000.0))
        << "q=" << permille / 1000.0;
  }
}

// --- FleetAggregator --------------------------------------------------------

fleet::DeviceOutcome OutcomeFor(std::size_t index, const std::string& cls) {
  fleet::DeviceOutcome out;
  out.index = index;
  out.scenario_class = cls;
  out.exhausted = index % 3 == 0;
  out.time_to_exhaustion_us = 1'000'000 + 37'000 * index;
  out.exhausted_within_horizon = out.exhausted && index % 6 == 0;
  out.incident = index % 2 == 0;
  out.ipc_calls = static_cast<std::int64_t>(100 * index);
  out.jgr_adds = static_cast<std::int64_t>(10 * index);
  out.peak_jgr = 500 + 13 * index;
  out.virtual_duration_us = 2'000'000;
  return out;
}

TEST(FleetAggregatorTest, ShardedMergeMatchesSequentialAbsorb) {
  const std::vector<std::string> classes = {"benign", "flood", "drip"};
  fleet::FleetAggregator sequential;
  std::vector<fleet::FleetAggregator> shards(4);
  for (std::size_t i = 0; i < 64; ++i) {
    const fleet::DeviceOutcome outcome = OutcomeFor(i, classes[i % 3]);
    sequential.Absorb(outcome);
    shards[i % shards.size()].Absorb(outcome);
  }
  // Fold the shards back-to-front: the census JSON must not care.
  fleet::FleetAggregator merged;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    merged.MergeFrom(*it);
  }
  EXPECT_EQ(sequential.devices(), merged.devices());
  EXPECT_EQ(sequential.ToJson().Dump(), merged.ToJson().Dump());
}

// --- FleetMatrix expansion --------------------------------------------------

TEST(FleetMatrixTest, ExpansionIsDeterministicAndDecorrelated) {
  fleet::FleetMatrix matrix;
  const std::vector<fleet::FleetDeviceSpec> first =
      fleet::ExpandMatrix(matrix);
  const std::vector<fleet::FleetDeviceSpec> second =
      fleet::ExpandMatrix(matrix);

  // Default axes: 4 caps x 9 scenarios x 3 defense points x 3 populations.
  ASSERT_EQ(first.size(), 324u);
  ASSERT_EQ(second.size(), first.size());

  std::set<std::uint64_t> scenario_seeds;
  std::set<std::uint64_t> prefix_keys;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].index, i);
    EXPECT_EQ(first[i].scenario_class, second[i].scenario_class);
    EXPECT_EQ(first[i].scenario_detail, second[i].scenario_detail);
    EXPECT_EQ(first[i].device.scenario_seed(), second[i].device.scenario_seed());
    EXPECT_EQ(sim::PrefixKey(first[i].device),
              sim::PrefixKey(second[i].device));
    // Per-device seeds come from (matrix seed, index) only — all distinct.
    EXPECT_EQ(first[i].device.scenario_seed(),
              fleet::MixFleetSeed(matrix.seed, i));
    scenario_seeds.insert(first[i].device.scenario_seed());
    prefix_keys.insert(sim::PrefixKey(first[i].device));
  }
  EXPECT_EQ(scenario_seeds.size(), first.size());
  // Scenario seed must NOT leak into the boot prefix: one warmed image per
  // JGR-cap point, nothing more.
  EXPECT_EQ(prefix_keys.size(), matrix.jgr_caps.size());
}

TEST(FleetMatrixTest, SeedChangesScenarioStreamsButNotShape) {
  fleet::FleetMatrix a, b;
  b.seed = 43;
  const auto fleet_a = fleet::ExpandMatrix(a);
  const auto fleet_b = fleet::ExpandMatrix(b);
  ASSERT_EQ(fleet_a.size(), fleet_b.size());
  for (std::size_t i = 0; i < fleet_a.size(); ++i) {
    EXPECT_EQ(fleet_a[i].scenario_detail, fleet_b[i].scenario_detail);
    EXPECT_NE(fleet_a[i].device.scenario_seed(),
              fleet_b[i].device.scenario_seed());
  }
}

// --- End-to-end fleet -------------------------------------------------------

fleet::FleetMatrix TinyMatrix() {
  fleet::FleetMatrix matrix;
  matrix.warmup_apps = 2;
  matrix.warmup_foreground_us = 500'000;
  matrix.jgr_caps = {6'400, 12'800};
  matrix.scenarios = {fleet::AttackScenario{"benign", 0, 0},
                      fleet::DefaultScenarios()[1]};  // flood enqueueToast
  // Aggressive thresholds: enqueueToast's per-call cost grows linearly
  // (Fig 5), so the 10 s horizon only fits ~700 calls — detection must
  // trigger within that budget for the activity check below.
  matrix.defense = {{false, 0, 0}, {true, 500, 1'000}};
  matrix.benign_apps = {0, 1};
  matrix.max_attacker_calls = 4'000;
  matrix.horizon_us = 10'000'000;
  return matrix;
}

TEST(FleetRunnerTest, CensusIsByteIdenticalAcrossJobs) {
  const fleet::FleetMatrix matrix = TinyMatrix();

  fleet::FleetOptions serial_options;
  serial_options.jobs = 1;
  fleet::FleetRunner serial(fleet::ExpandMatrix(matrix), serial_options);
  const fleet::FleetResult a = serial.Run();

  fleet::FleetOptions parallel_options;
  parallel_options.jobs = 4;
  fleet::FleetRunner parallel(fleet::ExpandMatrix(matrix), parallel_options);
  const fleet::FleetResult b = parallel.Run();

  // 2 caps x 2 scenarios x 2 defense x 2 populations, from 2 boot images.
  EXPECT_EQ(a.outcomes.size(), 16u);
  EXPECT_EQ(a.image_count, 2u);
  EXPECT_EQ(b.image_count, 2u);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].index, i);
    EXPECT_EQ(a.outcomes[i].exhausted, b.outcomes[i].exhausted);
    EXPECT_EQ(a.outcomes[i].time_to_exhaustion_us,
              b.outcomes[i].time_to_exhaustion_us);
    EXPECT_EQ(a.outcomes[i].incident, b.outcomes[i].incident);
    EXPECT_EQ(a.outcomes[i].ipc_calls, b.outcomes[i].ipc_calls);
    EXPECT_EQ(a.outcomes[i].jgr_adds, b.outcomes[i].jgr_adds);
    EXPECT_EQ(a.outcomes[i].peak_jgr, b.outcomes[i].peak_jgr);
    EXPECT_EQ(a.outcomes[i].virtual_duration_us,
              b.outcomes[i].virtual_duration_us);
  }
  EXPECT_EQ(a.aggregator.ToJson().Dump(), b.aggregator.ToJson().Dump());
  // Absolute pin, not just jobs-invariance: a change that shifted every
  // device the same way (benign fast-forward, flood, defender) would still
  // agree with itself across --jobs.
  snapshot::Serializer census;
  census.Str(a.aggregator.ToJson().Dump());
  EXPECT_EQ(census.Hash(), 0xfd52e19e0efe67d9ULL);

  // The flood devices actually did something: some exhausted or were caught.
  bool any_activity = false;
  for (const fleet::DeviceOutcome& outcome : a.outcomes) {
    if (outcome.exhausted || outcome.incident) any_activity = true;
  }
  EXPECT_TRUE(any_activity);
}

TEST(FleetRunnerTest, ImageBudgetEvictsLruInsteadOfRejecting) {
  fleet::FleetMatrix matrix = TinyMatrix();
  matrix.jgr_caps = {6'400, 12'800, 25'600};

  // Three distinct prefix keys on a residency budget of two: the runner must
  // evict cold images and rebuild them on re-use, not refuse the fleet.
  fleet::FleetOptions tight_options;
  tight_options.max_images = 2;
  fleet::FleetRunner tight(fleet::ExpandMatrix(matrix), tight_options);
  ASSERT_TRUE(tight.Prepare().ok());
  EXPECT_EQ(tight.image_count(), 3u);
  const fleet::FleetResult constrained = tight.Run();
  EXPECT_EQ(constrained.image_count, 3u);
  EXPECT_GE(constrained.cache.image_builds, 3u);

  // Rebuilt images restore the same bytes, so the census is unchanged by
  // the budget.
  fleet::FleetOptions roomy_options;
  roomy_options.max_images = 8;
  fleet::FleetRunner roomy(fleet::ExpandMatrix(matrix), roomy_options);
  const fleet::FleetResult unconstrained = roomy.Run();
  EXPECT_EQ(unconstrained.cache.image_builds, 3u);
  EXPECT_EQ(unconstrained.cache.image_evictions, 0u);
  EXPECT_EQ(constrained.aggregator.ToJson().Dump(),
            unconstrained.aggregator.ToJson().Dump());
}

}  // namespace
}  // namespace jgre
