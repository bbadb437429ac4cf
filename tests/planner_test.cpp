#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/planner.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

TEST(Planner, ProducesValidPlan) {
  Fixture fx(testing_util::mixed_six());
  Hetero2PipePlanner planner(*fx.eval);
  const PlannerReport report = planner.plan();
  EXPECT_EQ(report.plan.num_stages, fx.soc.num_processors());
  ASSERT_EQ(report.plan.models.size(), fx.models.size());
  for (const ModelPlan& mp : report.plan.models) {
    EXPECT_TRUE(mp.covers(fx.eval->model(mp.model_index).num_layers()));
  }
}

TEST(Planner, NanClassifierPercentileThrows) {
  // No clamp can place a NaN quantile; the classifier's percentile must
  // reject it instead of indexing the sorted intensities with it.
  Fixture fx(testing_util::mixed_six());
  PlannerOptions opts;
  opts.classifier_percentile = std::nan("");
  EXPECT_THROW(Hetero2PipePlanner(*fx.eval, opts).plan(), std::invalid_argument);
}

TEST(Planner, OrderIsPermutation) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  std::vector<std::size_t> seen;
  for (const ModelPlan& mp : report.plan.models) seen.push_back(mp.model_index);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(Planner, FullPlannerNotWorseThanNoCt) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport full = Hetero2PipePlanner(*fx.eval).plan();
  const PlannerReport no_ct =
      Hetero2PipePlanner(*fx.eval, PlannerOptions::no_ct()).plan();
  // Contention mitigation + tail optimization should pay off (or tie) under
  // the planner's scoring objective (the DES makespan).
  const double sim_full = simulate_plan(full.plan, *fx.eval).makespan_ms();
  const double sim_noct = simulate_plan(no_ct.plan, *fx.eval).makespan_ms();
  EXPECT_LE(sim_full, sim_noct * 1.02);
}

TEST(Planner, NoCtOptionsDisableTheRightSteps) {
  const PlannerOptions o = PlannerOptions::no_ct();
  EXPECT_FALSE(o.contention_mitigation);
  EXPECT_FALSE(o.tail_optimization);
  EXPECT_TRUE(o.work_stealing);
}

TEST(Planner, NoCtKeepsOriginalOrder) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport r =
      Hetero2PipePlanner(*fx.eval, PlannerOptions::no_ct()).plan();
  for (std::size_t i = 0; i < r.plan.models.size(); ++i) {
    EXPECT_EQ(r.plan.models[i].model_index, i);
  }
}

TEST(Planner, ReportContainsBubblesAndMitigation) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_GT(r.static_makespan_ms, 0.0);
  EXPECT_GE(r.static_bubble_ms, 0.0);
  EXPECT_EQ(r.mitigation.high.size(), fx.models.size());
}

TEST(Planner, SingleModelPlan) {
  Fixture fx({ModelId::kResNet50});
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  ASSERT_EQ(r.plan.models.size(), 1u);
  EXPECT_TRUE(r.plan.models[0].covers(fx.eval->model(0).num_layers()));
  EXPECT_GT(r.static_makespan_ms, 0.0);
}

TEST(Planner, EmptySequencePlan) {
  Fixture fx({});
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_TRUE(r.plan.models.empty());
  EXPECT_DOUBLE_EQ(r.static_makespan_ms, 0.0);
}

TEST(Planner, CustomStageCount) {
  Fixture fx(testing_util::mixed_four());
  PlannerOptions opts;
  opts.num_stages = 2;
  const PlannerReport r = Hetero2PipePlanner(*fx.eval, opts).plan();
  EXPECT_EQ(r.plan.num_stages, 2u);
  for (const ModelPlan& mp : r.plan.models) {
    EXPECT_EQ(mp.slices.size(), 2u);
  }
}

TEST(Planner, HighContentionLabelsMatchClassifier) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  for (const ModelPlan& mp : r.plan.models) {
    EXPECT_EQ(mp.high_contention, r.mitigation.high[mp.model_index]);
  }
}

TEST(Planner, StaticEvaluatorMemoryCheck) {
  Fixture fx(testing_util::mixed_four());
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  // Four mixed models on a Kirin-class memory budget must fit.
  EXPECT_TRUE(fx.eval->satisfies_memory(r.plan));
}

TEST(Planner, BubbleAccountingNonNegative) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_GE(fx.eval->total_bubble_ms(r.plan, true), 0.0);
  EXPECT_GE(fx.eval->total_bubble_ms(r.plan, false), 0.0);
}

TEST(Planner, ContentionRaisesStaticMakespan) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_GE(fx.eval->makespan_ms(r.plan, true),
            fx.eval->makespan_ms(r.plan, false));
}

}  // namespace
}  // namespace h2p
