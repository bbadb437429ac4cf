// Warm-start replanning: Hetero2PipePlanner::plan_warm seeded from a
// near-miss compiled plan must produce score-equivalent plans (simulated
// makespan within 10% of a cold replan) on every one-model-delta window,
// reject anything farther away, and plug into the online loop behind
// OnlineOptions::warm_start.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bubbles.h"
#include "core/planner.h"
#include "core/work_stealing.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/online.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

std::vector<const Model*> models_of(const std::vector<ModelId>& ids) {
  std::vector<const Model*> models;
  for (ModelId id : ids) models.push_back(&zoo_model(id));
  return models;
}

exec::CompiledPlan compile_seed(const Soc& soc,
                                const std::vector<const Model*>& models,
                                const PlannerOptions& opts = {}) {
  const StaticEvaluator eval(soc, models);
  const Hetero2PipePlanner planner(eval, opts);
  return exec::compile(planner.plan().plan, eval);
}

/// Warm-vs-cold score equivalence for one delta window.  Returns the
/// warm/cold simulated-makespan ratio for reporting.
double check_delta(const Soc& soc, const std::vector<const Model*>& seed_models,
                   const std::vector<const Model*>& delta_models) {
  const exec::CompiledPlan seed = compile_seed(soc, seed_models);
  const StaticEvaluator eval(soc, delta_models);
  const Hetero2PipePlanner planner(eval);

  const std::optional<PlannerReport> warm = planner.plan_warm(seed);
  EXPECT_TRUE(warm.has_value());
  if (!warm) return 0.0;
  EXPECT_EQ(warm->plan.models.size(), delta_models.size());
  EXPECT_TRUE(warm->memory_ok);
  for (const ModelPlan& mp : warm->plan.models) {
    EXPECT_TRUE(mp.covers(eval.model(mp.model_index).num_layers()));
  }

  const double warm_ms = simulate_plan(warm->plan, eval).makespan_ms();
  const double cold_ms = simulate_plan(planner.plan().plan, eval).makespan_ms();
  EXPECT_LE(warm_ms, 1.10 * cold_ms)
      << "warm plan not score-equivalent to cold";
  return warm_ms / cold_ms;
}

class WarmStartSocs : public ::testing::TestWithParam<const char*> {
 protected:
  static Soc soc() {
    const std::string name = GetParam();
    if (name == "kirin990") return Soc::kirin990();
    if (name == "snapdragon778g") return Soc::snapdragon778g();
    return Soc::snapdragon870();
  }
};

TEST_P(WarmStartSocs, SubstitutionIsScoreEquivalent) {
  const Soc soc = WarmStartSocs::soc();
  const std::vector<ModelId> base = {ModelId::kResNet50, ModelId::kBERT,
                                     ModelId::kGoogLeNet, ModelId::kSqueezeNet};
  // Substitute each position in turn, against models spanning the
  // intensity range (light CNN, heavy CNN, transformer).
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (ModelId sub :
         {ModelId::kMobileNetV2, ModelId::kYOLOv4, ModelId::kViT}) {
      std::vector<ModelId> delta = base;
      delta[pos] = sub;
      check_delta(soc, models_of(base), models_of(delta));
    }
  }
}

TEST_P(WarmStartSocs, AdditionIsScoreEquivalent) {
  const Soc soc = WarmStartSocs::soc();
  const std::vector<ModelId> base = {ModelId::kResNet50, ModelId::kBERT,
                                     ModelId::kGoogLeNet};
  for (ModelId extra :
       {ModelId::kAlexNet, ModelId::kYOLOv4, ModelId::kViT}) {
    std::vector<ModelId> delta = base;
    delta.push_back(extra);
    check_delta(soc, models_of(base), models_of(delta));
  }
}

TEST_P(WarmStartSocs, RemovalIsScoreEquivalent) {
  const Soc soc = WarmStartSocs::soc();
  const std::vector<ModelId> base = {ModelId::kResNet50, ModelId::kBERT,
                                     ModelId::kGoogLeNet, ModelId::kSqueezeNet};
  for (std::size_t drop = 0; drop < base.size(); ++drop) {
    std::vector<ModelId> delta = base;
    delta.erase(delta.begin() + static_cast<std::ptrdiff_t>(drop));
    check_delta(soc, models_of(base), models_of(delta));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSocs, WarmStartSocs,
                         ::testing::Values("kirin990", "snapdragon778g",
                                           "snapdragon870"));

TEST(WarmStart, DuplicateModelsSubstitution) {
  // {R, R, B} -> {R, B, B}: one R replaced by a second B.  Multiset
  // matching must pair the duplicates instead of rejecting.
  const Soc soc = Soc::kirin990();
  check_delta(soc,
              models_of({ModelId::kResNet50, ModelId::kResNet50,
                         ModelId::kBERT}),
              models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kBERT}));
}

TEST(WarmStart, TwoModelDeltaIsRejected) {
  const Soc soc = Soc::kirin990();
  const exec::CompiledPlan seed = compile_seed(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kGoogLeNet,
                      ModelId::kSqueezeNet}));
  const StaticEvaluator eval(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet,
                      ModelId::kMobileNetV2}));
  EXPECT_FALSE(Hetero2PipePlanner(eval).plan_warm(seed).has_value());
}

TEST(WarmStart, StageCountMismatchIsRejected) {
  const Soc soc = Soc::kirin990();
  const exec::CompiledPlan seed = compile_seed(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kGoogLeNet}));
  const StaticEvaluator eval(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet}));
  PlannerOptions shallow;
  shallow.num_stages = seed.num_stages > 1 ? seed.num_stages - 1 : 2;
  EXPECT_FALSE(Hetero2PipePlanner(eval, shallow).plan_warm(seed).has_value());
}

TEST(WarmStart, NoCtKnobsProduceValidWarmPlan) {
  // The ablation knobs flow through the warm path: no mitigation labels
  // move the added model, no polish pass runs, but the plan stays valid
  // and score-equivalent under the same knobs.
  const Soc soc = Soc::kirin990();
  const PlannerOptions no_ct = PlannerOptions::no_ct();
  const exec::CompiledPlan seed = compile_seed(
      soc,
      models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kGoogLeNet,
                 ModelId::kSqueezeNet}),
      no_ct);
  const StaticEvaluator eval(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kGoogLeNet,
                      ModelId::kAlexNet}));
  const Hetero2PipePlanner planner(eval, no_ct);
  const std::optional<PlannerReport> warm = planner.plan_warm(seed);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->plan.models.size(), 4u);
  for (const ModelPlan& mp : warm->plan.models) {
    EXPECT_TRUE(mp.covers(eval.model(mp.model_index).num_layers()));
  }
  const double warm_ms = simulate_plan(warm->plan, eval).makespan_ms();
  const double cold_ms = simulate_plan(planner.plan().plan, eval).makespan_ms();
  EXPECT_LE(warm_ms, 1.10 * cold_ms);
}

TEST(WarmStart, SettleSweepStartsFromTheArbitrationScore) {
  // settle's arbitration already DES-scored the plan it keeps, so its tail
  // sweep spends DES calls only on unpruned candidates: 5 on this window,
  // one fewer than the 6 of a sweep that rescores the plan it starts from.
  const Soc soc = Soc::kirin990();
  const exec::CompiledPlan seed = compile_seed(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}));
  const StaticEvaluator eval(
      soc, models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet}));
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  const std::optional<PlannerReport> warm = Hetero2PipePlanner(eval).plan_warm(seed);
  reg.set_enabled(false);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(reg.counter("planner.score_calls.tail").value(), 5u);

  // The known score changes nothing but the call count.
  const PlanScorer des = [&eval](const PipelinePlan& p) {
    return simulate_plan_makespan(p, eval);
  };
  const PipelinePlan start = horizontal_plan(eval, soc.num_processors());
  PipelinePlan rescored = start;
  PipelinePlan seeded = start;
  double rescored_score = 0.0;
  double seeded_score = 0.0;
  reg.reset();
  reg.set_enabled(true);
  optimize_tail(rescored, eval, des, &rescored_score);
  const std::uint64_t rescored_calls = reg.counter("planner.score_calls.tail").value();
  reg.reset();
  optimize_tail(seeded, eval, des, &seeded_score, des(start));
  const std::uint64_t seeded_calls = reg.counter("planner.score_calls.tail").value();
  reg.set_enabled(false);
  EXPECT_EQ(seeded_calls + 1, rescored_calls);
  EXPECT_EQ(seeded_score, rescored_score);
  ASSERT_EQ(seeded.models.size(), rescored.models.size());
  for (std::size_t i = 0; i < seeded.models.size(); ++i) {
    EXPECT_EQ(seeded.models[i].model_index, rescored.models[i].model_index);
    EXPECT_EQ(seeded.models[i].slices, rescored.models[i].slices);
  }
}

TEST(WarmStart, OnlineLoopTakesWarmPath) {
  // Window 0 cold, window 1 one model away: with warm_start the second
  // window must be served as a warm replan and still yield a complete,
  // causally valid timeline.
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kMobileNetV2, ModelId::kResNet50,
                     ModelId::kSqueezeNet, ModelId::kGoogLeNet,
                     ModelId::kMobileNetV2, ModelId::kResNet50,
                     ModelId::kSqueezeNet, ModelId::kAlexNet}) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  OnlineOptions opts;
  opts.replan_window = 4;
  opts.warm_start = true;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  EXPECT_EQ(r.replans, 2);
  EXPECT_EQ(r.warm_hits, 1);
  EXPECT_EQ(r.cache_hits, 0);
  ASSERT_EQ(r.windows.size(), 2u);
  EXPECT_EQ(r.windows[0].source, WindowSource::kColdReplan);
  EXPECT_EQ(r.windows[1].source, WindowSource::kWarmReplan);
  ASSERT_EQ(r.completion_ms.size(), stream.size());
  for (const double c : r.completion_ms) EXPECT_GT(c, 0.0);
  // The warm window is charged the (cheaper) warm overhead.
  EXPECT_DOUBLE_EQ(r.windows[1].planning_ms, opts.warm_planning_overhead_ms);
}

TEST(WarmStart, WarmHitsRequireWarmStartFlag) {
  // Same stream without the flag: the near-miss window replans cold.
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kMobileNetV2, ModelId::kResNet50,
                     ModelId::kSqueezeNet, ModelId::kGoogLeNet,
                     ModelId::kMobileNetV2, ModelId::kResNet50,
                     ModelId::kSqueezeNet, ModelId::kAlexNet}) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  OnlineOptions opts;
  opts.replan_window = 4;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  EXPECT_EQ(r.replans, 2);
  EXPECT_EQ(r.warm_hits, 0);
  ASSERT_EQ(r.windows.size(), 2u);
  EXPECT_EQ(r.windows[1].source, WindowSource::kColdReplan);
}

}  // namespace
}  // namespace h2p
