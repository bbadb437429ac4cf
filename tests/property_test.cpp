#include <gtest/gtest.h>

#include "core/planner.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace h2p {
namespace {

using testing_util::Fixture;

std::vector<ModelId> random_combo(std::uint64_t seed, std::size_t lo = 3,
                                  std::size_t hi = 7) {
  Rng rng(seed);
  const std::size_t count = lo + rng.index(hi - lo + 1);
  std::vector<ModelId> ids;
  const auto& all = all_model_ids();
  for (std::size_t i = 0; i < count; ++i) ids.push_back(all[rng.index(all.size())]);
  return ids;
}

class RandomComboProperty : public ::testing::TestWithParam<int> {};

// Every plan the planner emits is structurally valid and simulatable.
TEST_P(RandomComboProperty, PlansAlwaysValidAndSimulatable) {
  Fixture fx(random_combo(5000 + GetParam()));
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  ASSERT_EQ(report.plan.models.size(), fx.models.size());
  for (const ModelPlan& mp : report.plan.models) {
    EXPECT_TRUE(mp.covers(fx.eval->model(mp.model_index).num_layers()));
  }
  const Timeline t = simulate_plan(report.plan, *fx.eval);
  EXPECT_GT(t.makespan_ms(), 0.0);
}

// The DES makespan with contention is never below the contention-free one.
TEST_P(RandomComboProperty, ContentionNeverSpeedsThingsUp) {
  Fixture fx(random_combo(6000 + GetParam()));
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);
  const double with = simulate(fx.soc, compiled).makespan_ms();
  const double without =
      simulate(fx.soc, testing_util::without_intensity(compiled)).makespan_ms();
  EXPECT_GE(with, without - 1e-6);
}

// Pipeline makespan is bounded below by the heaviest single stage and above
// by fully serial execution on the best processor.
TEST_P(RandomComboProperty, MakespanSandwich) {
  Fixture fx(random_combo(7000 + GetParam()));
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const Timeline t = simulate(
      fx.soc, testing_util::without_intensity(exec::compile(report.plan, *fx.eval)));

  double max_stage = 0.0, total_work = 0.0;
  for (const ModelPlan& mp : report.plan.models) {
    for (std::size_t k = 0; k < report.plan.num_stages; ++k) {
      const double ms = fx.eval->stage_solo_ms(mp, k);
      max_stage = std::max(max_stage, ms);
      total_work += ms;
    }
  }
  EXPECT_GE(t.makespan_ms(), max_stage - 1e-6);
  EXPECT_LE(t.makespan_ms(), total_work + 1e-6);
}

// Property 1 (paper): bubbles and latency are positively, roughly linearly
// related across perturbations of the same workload.
TEST(BubbleLatencyProperty, PositiveCorrelationAcrossPerturbations) {
  Fixture fx(testing_util::mixed_six());
  const std::size_t K = fx.soc.num_processors();
  Rng rng(77);

  std::vector<double> bubbles, latencies;
  for (int variant = 0; variant < 30; ++variant) {
    PipelinePlan plan = horizontal_plan(*fx.eval, K);
    // Random boundary perturbations inflate bubbles by unbalancing stages.
    for (ModelPlan& mp : plan.models) {
      const std::size_t n = fx.eval->model(mp.model_index).num_layers();
      std::vector<std::size_t> b(K + 1, 0);
      b[K] = n;
      std::size_t cursor = 0;
      for (std::size_t k = 0; k < K; ++k) {
        b[k] = cursor;
        if (!mp.slices[k].empty()) cursor = mp.slices[k].end;
      }
      for (int moves = rng.uniform_int(0, 3 * variant); moves > 0; --moves) {
        const std::size_t k = 1 + rng.index(K - 1);
        if (rng.chance(0.5) && b[k] < b[k + 1]) ++b[k];
        else if (b[k] > b[k - 1]) --b[k];
      }
      for (std::size_t k = 0; k < K; ++k) mp.slices[k] = Slice{b[k], b[k + 1]};
    }
    const Timeline t = simulate_plan(plan, *fx.eval);
    // Bubble size per the paper's Def. 3 (wavefront columns), latency from
    // the DES — the Fig-12 relation.
    bubbles.push_back(fx.eval->total_bubble_ms(plan, true));
    latencies.push_back(t.makespan_ms());
  }
  const LinearFit fit = fit_linear(bubbles, latencies);
  EXPECT_GT(fit.slope, 0.0);
  // "General linear relationship" (Fig 12): strong positive trend; the DES
  // adds asynchrony the wavefront bubbles don't see, so r^2 < 1.
  EXPECT_GT(fit.r2, 0.35);
}

// The static wavefront objective and the DES ground truth must agree in
// direction: plans the evaluator ranks much better shouldn't simulate worse.
TEST_P(RandomComboProperty, StaticObjectiveTracksSimulation) {
  Fixture fx(random_combo(8000 + GetParam(), 4, 6));
  const PlannerReport full = Hetero2PipePlanner(*fx.eval).plan();
  const PlannerReport no_ws = [&] {
    PlannerOptions o;
    o.work_stealing = false;
    o.tail_optimization = false;
    o.contention_mitigation = false;
    return Hetero2PipePlanner(*fx.eval, o).plan();
  }();
  // If the full planner claims a >25% static win, the DES should at least
  // not show a regression beyond noise.
  if (full.static_makespan_ms < 0.75 * no_ws.static_makespan_ms) {
    const double sim_full = simulate_plan(full.plan, *fx.eval).makespan_ms();
    const double sim_base = simulate_plan(no_ws.plan, *fx.eval).makespan_ms();
    EXPECT_LT(sim_full, sim_base * 1.15);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomComboProperty, ::testing::Range(0, 25));

// Failure injection: a Soc with more stages requested than processors, and
// models that exceed the memory budget, degrade gracefully.
TEST(FailureInjection, MemoryConstraintDetectsOverload) {
  // Many large models at once exceed the ~2.5 GB free budget.
  Fixture fx({ModelId::kBERT, ModelId::kViT, ModelId::kVGG16, ModelId::kBERT,
              ModelId::kViT, ModelId::kVGG16});
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_FALSE(fx.eval->satisfies_memory(report.plan));
}

TEST(FailureInjection, LightModelsFitComfortably) {
  Fixture fx({ModelId::kSqueezeNet, ModelId::kMobileNetV2, ModelId::kGoogLeNet});
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_TRUE(fx.eval->satisfies_memory(report.plan));
}

}  // namespace
}  // namespace h2p
