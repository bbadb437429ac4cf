#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/incremental.h"
#include "core/planner.h"
#include "core/work_stealing.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace h2p {
namespace {

using testing_util::Fixture;

std::vector<ModelId> mixed_eight() {
  return {ModelId::kYOLOv4,   ModelId::kBERT,        ModelId::kSqueezeNet,
          ModelId::kResNet50, ModelId::kAlexNet,     ModelId::kMobileNetV2,
          ModelId::kVGG16,    ModelId::kSqueezeNet};
}

/// Bit-identical plan comparison: slices, order, H/L labels — the
/// tentpole's determinism guarantee.
void expect_identical(const PlannerReport& a, const PlannerReport& b) {
  EXPECT_EQ(a.plan.num_stages, b.plan.num_stages);
  ASSERT_EQ(a.plan.models.size(), b.plan.models.size());
  for (std::size_t i = 0; i < a.plan.models.size(); ++i) {
    const ModelPlan& ma = a.plan.models[i];
    const ModelPlan& mb = b.plan.models[i];
    EXPECT_EQ(ma.model_index, mb.model_index) << "slot " << i;
    EXPECT_EQ(ma.high_contention, mb.high_contention) << "slot " << i;
    ASSERT_EQ(ma.slices.size(), mb.slices.size()) << "slot " << i;
    for (std::size_t k = 0; k < ma.slices.size(); ++k) {
      EXPECT_EQ(ma.slices[k], mb.slices[k]) << "slot " << i << " stage " << k;
    }
  }
  EXPECT_EQ(a.layers_stolen, b.layers_stolen);
  // Exact double equality on purpose: a repeated plan must perform the
  // same floating-point operations in the same order.
  EXPECT_EQ(a.static_makespan_ms, b.static_makespan_ms);
  EXPECT_EQ(a.static_bubble_ms, b.static_bubble_ms);
}

class PlannerDeterminism : public ::testing::TestWithParam<const char*> {};

Soc soc_by_name(const std::string& name) {
  if (name == "snapdragon778g") return Soc::snapdragon778g();
  if (name == "snapdragon870") return Soc::snapdragon870();
  return Soc::kirin990();
}

// Each repeat builds a fresh evaluator, so cost tables, the Algorithm-1
// DPs and the DES-scored passes all run again from scratch.
TEST_P(PlannerDeterminism, RepeatedPlansBitIdentical) {
  Fixture fx(mixed_eight(), soc_by_name(GetParam()));
  const PlannerReport first = Hetero2PipePlanner(*fx.eval).plan();
  const StaticEvaluator again(fx.soc, fx.models);
  expect_identical(first, Hetero2PipePlanner(again).plan());
}

TEST_P(PlannerDeterminism, NoCtPathAlsoDeterministic) {
  Fixture fx(mixed_eight(), soc_by_name(GetParam()));
  const PlannerOptions opts = PlannerOptions::no_ct();
  const PlannerReport first = Hetero2PipePlanner(*fx.eval, opts).plan();
  const StaticEvaluator again(fx.soc, fx.models);
  expect_identical(first, Hetero2PipePlanner(again, opts).plan());
}

TEST_P(PlannerDeterminism, HorizontalPlanBitIdentical) {
  Fixture fx(mixed_eight(), soc_by_name(GetParam()));
  const std::size_t K = fx.soc.num_processors();
  const PipelinePlan first = horizontal_plan(*fx.eval, K);
  const StaticEvaluator again(fx.soc, fx.models);
  const PipelinePlan second = horizontal_plan(again, K);
  ASSERT_EQ(first.models.size(), second.models.size());
  for (std::size_t i = 0; i < first.models.size(); ++i) {
    EXPECT_EQ(first.models[i].slices, second.models[i].slices);
  }
}

TEST_P(PlannerDeterminism, InstrumentationDoesNotPerturbPlans) {
  // Metrics + tracing are strictly observational: a cold plan with the
  // global registry and tracer enabled is bit-identical to one without.
  // Both start from empty profile and slicing memos, so the instrumented
  // run also records the stores' misses.
  const Soc soc = soc_by_name(GetParam());
  std::vector<const Model*> models;
  for (ModelId id : mixed_eight()) models.push_back(&zoo_model(id));
  profile_store::clear();
  slicing_memo::clear();
  const StaticEvaluator eval_off(soc, models);
  const PlannerReport off = Hetero2PipePlanner(eval_off).plan();

  profile_store::clear();
  slicing_memo::clear();
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);
  const StaticEvaluator eval_on(soc, models);
  const PlannerReport on = Hetero2PipePlanner(eval_on).plan();
  obs::Tracer::global().set_enabled(false);
  obs::Registry::global().set_enabled(false);

  expect_identical(off, on);
  obs::Registry& reg = obs::Registry::global();
  // Scoring counters: every branch ran a DES-scored tail sweep, whose score
  // calls are its initial score plus one per unpruned candidate, and the
  // branch comparison reused the sweeps' carried scores.
  const std::uint64_t branches = on.mitigation.relocations > 0 ? 2 : 1;
  const std::uint64_t candidates = reg.counter("planner.tail_candidates").value();
  const std::uint64_t pruned = reg.counter("planner.tail_pruned").value();
  EXPECT_GT(candidates, 0u);
  EXPECT_LE(pruned, candidates);
  EXPECT_EQ(reg.counter("planner.score_calls.tail").value(),
            branches + candidates - pruned);
  EXPECT_EQ(reg.counter("planner.score_calls.branch").value(), 0u);
  // Seven distinct models (SqueezeNet twice) on every processor.
  const std::uint64_t blocks = 7 * soc.num_processors();
  EXPECT_EQ(reg.counter("profile_store.misses").value(), blocks);
  EXPECT_EQ(reg.counter("profile_store.hits").value(), soc.num_processors());
  std::size_t cold_spans = 0;
  double span_misses = -1.0;
  for (const obs::TraceEvent& e : obs::Tracer::global().events()) {
    if (e.name == "planner.plan_cold") ++cold_spans;
    if (e.name != "planner.cost_tables") continue;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "misses") span_misses = a.number;
    }
  }
  EXPECT_GE(cold_spans, 1u);
  EXPECT_EQ(span_misses, static_cast<double>(blocks));
  obs::Tracer::global().clear();
}

INSTANTIATE_TEST_SUITE_P(AllSocs, PlannerDeterminism,
                         ::testing::Values("kirin990", "snapdragon778g",
                                           "snapdragon870"));

// ---- incremental scorer ----------------------------------------------------

TEST(IncrementalScorer, BaseScoreMatchesFullEvaluation) {
  Fixture fx(testing_util::mixed_six());
  const PipelinePlan plan = horizontal_plan(*fx.eval, fx.soc.num_processors());
  const IncrementalStaticScorer inc(*fx.eval, plan);
  EXPECT_EQ(inc.base_score(), fx.eval->makespan_ms(plan, true));
}

TEST(IncrementalScorer, SingleModelEditBitIdenticalToFresh) {
  Fixture fx(testing_util::mixed_six());
  const std::size_t K = fx.soc.num_processors();
  PipelinePlan plan = horizontal_plan(*fx.eval, K);
  IncrementalStaticScorer inc(*fx.eval, plan);
  CollapseBound lb(*fx.eval, plan);

  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t i = rng.index(plan.models.size());
    const std::size_t n = fx.eval->model(plan.models[i].model_index).num_layers();
    // Random single-processor collapse — the tail search's candidate shape.
    std::vector<Slice> cand(K, Slice{0, 0});
    const std::size_t s = rng.index(K);
    cand[s] = Slice{0, n};

    PipelinePlan edited = plan;
    edited.models[i].slices = cand;
    const double fresh = fx.eval->makespan_ms(edited, true);
    EXPECT_EQ(inc.score_with(i, cand), fresh) << "trial " << trial;

    // The DES lower bound must never exceed the actual DES makespan.
    // (Checked against the simulator below; here just sanity: bound is
    // finite and non-negative.)
    const double collapse_ms = fx.eval->stage_solo_ms(edited.models[i], s);
    EXPECT_GE(lb.bound(i, s, collapse_ms), 0.0);

    // Occasionally commit the edit and keep checking against fresh state.
    if (trial % 3 == 0) {
      inc.apply(i, cand);
      lb.apply(i, s, collapse_ms);
      plan = edited;
      EXPECT_EQ(inc.base_score(), fx.eval->makespan_ms(plan, true));
    }
  }
}

TEST(IncrementalScorer, DesLowerBoundHoldsAgainstSimulator) {
  Fixture fx(testing_util::mixed_four());
  const std::size_t K = fx.soc.num_processors();
  PipelinePlan plan = horizontal_plan(*fx.eval, K);
  const CollapseBound lb(*fx.eval, plan);
  for (std::size_t i = 0; i < plan.models.size(); ++i) {
    const std::size_t n = fx.eval->model(plan.models[i].model_index).num_layers();
    for (std::size_t s = 0; s < K; ++s) {
      std::vector<Slice> cand(K, Slice{0, 0});
      cand[s] = Slice{0, n};
      PipelinePlan edited = plan;
      edited.models[i].slices = cand;
      const double des = simulate_plan(edited, *fx.eval).makespan_ms();
      const double collapse_ms = fx.eval->stage_solo_ms(edited.models[i], s);
      EXPECT_LE(lb.bound(i, s, collapse_ms), des + 1e-9)
          << "model " << i << " collapse " << s;
    }
  }
}

// The DES-scored sweep edits the plan in place: each scored candidate
// differs from the plan in one model's slicing, and rejected ones are undone.
TEST(OptimizeTail, InPlaceSweepRestoresRejectedCandidates) {
  Fixture fx(testing_util::mixed_six());
  const PipelinePlan original = horizontal_plan(*fx.eval, fx.soc.num_processors());
  PipelinePlan plan = original;
  std::size_t scored = 0;
  const PlanScorer flat = [&](const PipelinePlan& p) {
    std::size_t edited = 0;
    for (std::size_t i = 0; i < p.models.size(); ++i) {
      edited += p.models[i].slices != original.models[i].slices;
    }
    EXPECT_LE(edited, 1u);
    scored += edited;
    return 1e9;  // above every DES lower bound, never a strict improvement
  };
  EXPECT_FALSE(optimize_tail(plan, *fx.eval, flat));
  EXPECT_GT(scored, 0u);
  for (std::size_t i = 0; i < plan.models.size(); ++i) {
    EXPECT_EQ(plan.models[i].slices, original.models[i].slices) << "slot " << i;
  }
}

}  // namespace
}  // namespace h2p
