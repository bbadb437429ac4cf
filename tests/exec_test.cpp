// Tests for the exec::CompiledPlan lowering layer.  The equivalence test
// pins the refactor contract: exec::compile, mapped 1:1 onto simulator
// tasks, must reproduce the pre-refactor expansion *byte for byte* (exact
// float equality, not tolerance).
#include <gtest/gtest.h>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

std::vector<ModelId> five_models() {
  return {ModelId::kYOLOv4, ModelId::kBERT, ModelId::kResNet50,
          ModelId::kSqueezeNet, ModelId::kMobileNetV2};
}

/// The lowering exactly as every consumer wrote it before exec::compile
/// existed (see pre-refactor sim/pipeline_sim.cpp): iterate slots, skip
/// empty slices, derive solo/sensitivity/intensity per stage.
std::vector<SimTask> legacy_lowering(const PipelinePlan& plan,
                                     const StaticEvaluator& eval) {
  std::vector<SimTask> tasks;
  for (std::size_t slot = 0; slot < plan.models.size(); ++slot) {
    const ModelPlan& mp = plan.models[slot];
    std::size_t seq = 0;
    for (std::size_t k = 0; k < mp.slices.size(); ++k) {
      if (mp.slices[k].empty()) continue;
      SimTask t;
      t.model_idx = slot;
      t.seq_in_model = seq++;
      t.proc_idx = k;
      t.solo_ms = eval.stage_solo_ms(mp, k);
      t.sensitivity = eval.stage_sensitivity(mp, k);
      t.intensity = eval.stage_intensity(mp, k);
      tasks.push_back(t);
    }
  }
  return tasks;
}

TEST(ExecEquivalence, TasksByteIdenticalToLegacyOnAllSocs) {
  for (Soc soc : {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    SCOPED_TRACE(soc.name());
    Fixture fx(five_models(), soc);
    const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();

    const std::vector<SimTask> legacy = legacy_lowering(report.plan, *fx.eval);
    const std::vector<SimTask> now =
        tasks_from_compiled(exec::compile(report.plan, *fx.eval));

    ASSERT_EQ(now.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(now[i].model_idx, legacy[i].model_idx);
      EXPECT_EQ(now[i].seq_in_model, legacy[i].seq_in_model);
      EXPECT_EQ(now[i].proc_idx, legacy[i].proc_idx);
      // Exact equality: the compiled exec_ms + boundary_copy_ms split must
      // sum in the same order the legacy code computed stage_solo_ms.
      EXPECT_EQ(now[i].solo_ms, legacy[i].solo_ms);
      EXPECT_EQ(now[i].sensitivity, legacy[i].sensitivity);
      EXPECT_EQ(now[i].intensity, legacy[i].intensity);
      EXPECT_EQ(now[i].arrival_ms, legacy[i].arrival_ms);
    }
  }
}

TEST(CompiledPlan, CarriesPlanShapeAndMetadata) {
  Fixture fx(testing_util::mixed_four());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);

  EXPECT_EQ(compiled.num_models, fx.models.size());
  EXPECT_EQ(compiled.num_stages, fx.soc.num_processors());
  EXPECT_EQ(compiled.model_names.size(), fx.models.size());
  EXPECT_EQ(compiled.resident_bytes.size(), fx.models.size());
  EXPECT_EQ(compiled.original_index.size(), fx.models.size());

  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    EXPECT_EQ(compiled.model_names[slot],
              fx.models[compiled.original_index[slot]]->name());
    EXPECT_GT(compiled.resident_bytes[slot], 0.0);
  }

  double sum = 0.0;
  for (const exec::ScheduledSlice& s : compiled.slices) {
    EXPECT_GT(s.exec_ms, 0.0);
    EXPECT_GE(s.boundary_copy_ms, 0.0);
    EXPECT_EQ(s.solo_ms(), s.exec_ms + s.boundary_copy_ms);
    EXPECT_GE(s.sensitivity, 0.0);
    EXPECT_GE(s.intensity, 0.0);
    EXPECT_GT(s.dram_bytes, 0.0);
    EXPECT_LT(s.proc_idx, fx.soc.num_processors());
    sum += s.solo_ms();
  }
  EXPECT_DOUBLE_EQ(compiled.total_solo_ms(), sum);
}

TEST(CompiledPlan, FirstSliceHasNoBoundaryCopy) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);
  for (const exec::ScheduledSlice& s : compiled.slices) {
    if (s.layers.begin == 0) {
      EXPECT_EQ(s.boundary_copy_ms, 0.0) << "slice starting at layer 0 must "
                                            "not charge a boundary copy";
    }
  }
}

TEST(CompiledPlan, FindLocatesSlicesBySlotAndSeq) {
  Fixture fx(testing_util::mixed_four());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);
  for (const exec::ScheduledSlice& s : compiled.slices) {
    const exec::ScheduledSlice* found = compiled.find(s.model_idx, s.seq_in_model);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, s);
  }
  EXPECT_EQ(compiled.find(compiled.num_models + 7, 0), nullptr);
}

TEST(CompiledPlan, BuilderMatchesCompileForGridPlans) {
  // Lowering the planner's grid plan through the builder must agree with
  // compile(): same slices, same residency.
  Fixture fx(testing_util::mixed_four());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan reference = exec::compile(report.plan, *fx.eval);

  exec::CompiledPlanBuilder builder(*fx.eval);
  for (std::size_t slot = 0; slot < report.plan.models.size(); ++slot) {
    builder.add_slot(slot);
    const ModelPlan& mp = report.plan.models[slot];
    for (std::size_t k = 0; k < mp.slices.size(); ++k) {
      if (mp.slices[k].empty()) continue;
      builder.add_range(slot, k, mp.slices[k].begin, mp.slices[k].end);
    }
  }
  const exec::CompiledPlan rebuilt = builder.build();

  ASSERT_EQ(rebuilt.slices.size(), reference.slices.size());
  for (std::size_t i = 0; i < reference.slices.size(); ++i) {
    EXPECT_EQ(rebuilt.slices[i], reference.slices[i]) << "slice " << i;
  }
  ASSERT_EQ(rebuilt.resident_bytes.size(), reference.resident_bytes.size());
  for (std::size_t slot = 0; slot < reference.resident_bytes.size(); ++slot) {
    EXPECT_EQ(rebuilt.resident_bytes[slot], reference.resident_bytes[slot]);
  }
}

TEST(CompiledPlan, LowerRangeRejectsEmptyRange) {
  Fixture fx({ModelId::kResNet50});
  EXPECT_THROW(static_cast<void>(exec::lower_range(*fx.eval, 0, 0, 0, 0, 3, 3)),
               std::invalid_argument);
}

/// A plan of model 0 alone, one slice per stage.
PipelinePlan one_model_plan(std::vector<Slice> slices) {
  PipelinePlan plan;
  plan.num_stages = slices.size();
  plan.models.push_back(ModelPlan{0, std::move(slices), false});
  return plan;
}

TEST(CompiledPlan, CompileRejectsOverlappingSlices) {
  // Stage 1 runs backwards (Slice::empty() calls it empty); stages 2-3
  // then re-run layers 5-9 after stage 0 already ran them.
  Fixture fx({ModelId::kSqueezeNet});
  const std::size_t n = fx.eval->model(0).num_layers();
  ASSERT_GE(n, 12u);
  const PipelinePlan plan = one_model_plan({{0, 10}, {12, 5}, {5, 8}, {8, 12}});
  EXPECT_THROW(static_cast<void>(exec::compile(plan, *fx.eval)),
               std::invalid_argument);
  // The overlap alone, with every range forwards and the last layer covered.
  const PipelinePlan overlap = one_model_plan({{0, 10}, {}, {5, 8}, {8, n}});
  EXPECT_THROW(static_cast<void>(exec::compile(overlap, *fx.eval)),
               std::invalid_argument);
}

}  // namespace
}  // namespace h2p
