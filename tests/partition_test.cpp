#include <gtest/gtest.h>

#include "core/partition.h"
#include "models/model_zoo.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace h2p {
namespace {

/// Additive per-layer cost with per-stage speed factors — satisfies
/// Property 2 exactly.
StageCostFn additive_cost(const std::vector<double>& layer_cost,
                          const std::vector<double>& stage_speed) {
  return [layer_cost, stage_speed](std::size_t k, std::size_t i, std::size_t j) {
    double sum = 0.0;
    for (std::size_t l = i; l <= j && l < layer_cost.size(); ++l) sum += layer_cost[l];
    return sum / stage_speed[k];
  };
}

bool tiles(const std::vector<Slice>& slices, std::size_t n) {
  std::size_t cursor = 0;
  for (const Slice& s : slices) {
    if (s.empty()) continue;
    if (s.begin != cursor) return false;
    cursor = s.end;
  }
  return cursor == n;
}

TEST(Partition, SingleStageTakesEverything) {
  const StageCostFn cost = additive_cost({1, 2, 3}, {1.0});
  const PartitionResult r = partition_minmax(cost, 3, 1);
  ASSERT_EQ(r.slices.size(), 1u);
  EXPECT_EQ(r.slices[0], (Slice{0, 3}));
  EXPECT_DOUBLE_EQ(r.bottleneck_ms, 6.0);
}

TEST(Partition, UniformLayersEqualSpeedsSplitEvenly) {
  const StageCostFn cost = additive_cost(std::vector<double>(8, 1.0), {1.0, 1.0});
  const PartitionResult r = partition_minmax(cost, 8, 2);
  EXPECT_TRUE(tiles(r.slices, 8));
  EXPECT_DOUBLE_EQ(r.bottleneck_ms, 4.0);
}

TEST(Partition, FasterStageGetsMoreLayers) {
  // Stage 0 is 3x faster: balanced bottleneck puts ~3/4 of work there.
  const StageCostFn cost = additive_cost(std::vector<double>(12, 1.0), {3.0, 1.0});
  const PartitionResult r = partition_minmax(cost, 12, 2);
  EXPECT_TRUE(tiles(r.slices, 12));
  EXPECT_EQ(r.slices[0].size(), 9u);
  EXPECT_DOUBLE_EQ(r.bottleneck_ms, 3.0);
}

TEST(Partition, EmptyStagesAllowed) {
  // One huge layer, three stages: two stages must be empty.
  const StageCostFn cost = additive_cost({100.0}, {1.0, 1.0, 1.0});
  const PartitionResult r = partition_minmax(cost, 1, 3);
  EXPECT_TRUE(tiles(r.slices, 1));
  int non_empty = 0;
  for (const Slice& s : r.slices) non_empty += !s.empty();
  EXPECT_EQ(non_empty, 1);
}

TEST(Partition, ZeroLayers) {
  const StageCostFn cost = additive_cost({}, {1.0, 1.0});
  const PartitionResult r = partition_minmax(cost, 0, 2);
  EXPECT_TRUE(tiles(r.slices, 0));
  EXPECT_DOUBLE_EQ(r.bottleneck_ms, 0.0);
}

TEST(Partition, ZeroStages) {
  const StageCostFn cost = additive_cost({1.0}, {});
  const PartitionResult r = partition_minmax(cost, 1, 0);
  EXPECT_TRUE(r.slices.empty());
}

TEST(Partition, ReferenceDpMatchesHandComputedOptimum) {
  // layers {5,1,1,1,5}, equal speeds, 3 stages: optimum bottleneck 5.
  const StageCostFn cost = additive_cost({5, 1, 1, 1, 5}, {1.0, 1.0, 1.0});
  const PartitionResult r = partition_minmax_reference(cost, 5, 3);
  EXPECT_DOUBLE_EQ(r.bottleneck_ms, 5.0);
  EXPECT_TRUE(tiles(r.slices, 5));
}

// Property: the O(nK) parametric solver matches the O(n^2 K) reference DP
// on random monotone instances (Property 2 holds by construction).
class PartitionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionPropertyTest, ParametricMatchesReference) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 1 + rng.index(30);
  const std::size_t K = 1 + rng.index(5);
  std::vector<double> layers(n);
  for (double& v : layers) v = rng.uniform(0.1, 10.0);
  std::vector<double> speeds(K);
  for (double& v : speeds) v = rng.uniform(0.2, 5.0);
  const StageCostFn cost = additive_cost(layers, speeds);

  const PartitionResult fast = partition_minmax(cost, n, K);
  const PartitionResult ref = partition_minmax_reference(cost, n, K);
  EXPECT_TRUE(tiles(fast.slices, n));
  EXPECT_TRUE(tiles(ref.slices, n));
  EXPECT_NEAR(fast.bottleneck_ms, ref.bottleneck_ms,
              1e-6 * (1.0 + ref.bottleneck_ms));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PartitionPropertyTest,
                         ::testing::Range(0, 40));

// On the real (nearly monotone) cost tables, the parametric solver must be
// within a whisker of the exact DP.
class RealModelPartitionTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(RealModelPartitionTest, NearOptimalOnZooModels) {
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const CostTable table(zoo_model(GetParam()), cost);
  const StageCostFn fn = stage_cost_fn(table);
  const std::size_t n = table.num_layers();
  const std::size_t K = soc.num_processors();

  const PartitionResult fast = partition_minmax(fn, n, K);
  const PartitionResult ref = partition_minmax_reference(fn, n, K);
  EXPECT_TRUE(tiles(fast.slices, n)) << to_string(GetParam());
  EXPECT_LE(fast.bottleneck_ms, ref.bottleneck_ms * 1.10 + 1e-9)
      << to_string(GetParam());
}

TEST_P(RealModelPartitionTest, BottleneckBeatsWholeModelOnOneProc) {
  // Slicing across K processors can never be worse than the best single
  // processor (choosing that single stage is in the search space).
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const CostTable table(zoo_model(GetParam()), cost);
  const std::size_t n = table.num_layers();
  const PartitionResult r = partition_model(table, soc.num_processors());
  double best_single = table.exec_ms(0, 0, n - 1);
  for (std::size_t k = 1; k < soc.num_processors(); ++k) {
    best_single = std::min(best_single, table.exec_ms(k, 0, n - 1));
  }
  EXPECT_LE(r.bottleneck_ms, best_single * 1.001);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RealModelPartitionTest,
                         ::testing::ValuesIn(all_model_ids()),
                         [](const auto& info) { return to_string(info.param); });

TEST(Partition, PartitionModelUsesBoundaryCopies) {
  // The stage cost of a mid-model slice must exceed pure exec (copy-in).
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const CostTable table(zoo_model(ModelId::kVGG16), cost);
  const StageCostFn fn = stage_cost_fn(table);
  EXPECT_GT(fn(1, 5, 10), table.exec_ms(1, 5, 10));
  EXPECT_DOUBLE_EQ(fn(1, 0, 10), table.exec_ms(1, 0, 10));  // no copy at input
}

}  // namespace
}  // namespace h2p
