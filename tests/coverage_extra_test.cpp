// Edge-case sweep across modules: small behaviours that the focused suites
// don't exercise.
#include <gtest/gtest.h>

#include "core/planner.h"
#include "models/model_zoo.h"
#include "sim/pipeline_sim.h"
#include "soc/cost_model.h"
#include "soc/thermal.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;
using testing_util::sim_task;

TEST(CoverageExtra, NpuBatchWaves) {
  // The Kirin NPU has batch capacity 4: batches 1-4 cost one wave,
  // batch 5 jumps to two.
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const Processor& npu =
      soc.processor(static_cast<std::size_t>(soc.find(ProcKind::kNpu)));
  ASSERT_EQ(npu.batch_capacity, 4);
  const Model& m = zoo_model(ModelId::kResNet50);
  const double b1 = cost.model_batch_ms(m, npu, 1);
  const double b4 = cost.model_batch_ms(m, npu, 4);
  const double b5 = cost.model_batch_ms(m, npu, 5);
  EXPECT_NEAR(b4, b1, b1 * 1e-9);
  EXPECT_GT(b5, b4 * 1.2);
}

TEST(CoverageExtra, CopyZeroBytesStillPaysLatency) {
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const Processor& gpu =
      soc.processor(static_cast<std::size_t>(soc.find(ProcKind::kGpu)));
  EXPECT_DOUBLE_EQ(cost.copy_ms(0.0, gpu), gpu.copy_in_latency_ms);
}

TEST(CoverageExtra, PlannerWithSingleStageDegradesToBestProcessor) {
  Fixture fx({ModelId::kResNet50, ModelId::kSqueezeNet});
  PlannerOptions opts;
  opts.num_stages = 1;
  const PlannerReport r = Hetero2PipePlanner(*fx.eval, opts).plan();
  // Everything lands on processor 0 (the NPU, both models are NPU-native).
  for (const ModelPlan& mp : r.plan.models) {
    ASSERT_EQ(mp.slices.size(), 1u);
    EXPECT_FALSE(mp.slices[0].empty());
  }
  const Timeline t = simulate_plan(r.plan, *fx.eval);
  for (const TaskRecord& task : t.tasks) EXPECT_EQ(task.proc_idx, 0u);
}

TEST(CoverageExtra, GanttClampsAtWidth) {
  Timeline t;
  t.num_procs = 1;
  t.num_models = 1;
  t.tasks = {{0, 0, 0, 0.0, 100.0, 100.0}};
  const std::string g = t.gantt({"P"}, 10);
  // One row, ten glyph columns, none out of bounds.
  EXPECT_NE(g.find("P |0000000000|"), std::string::npos);
}

TEST(CoverageExtra, ThermalTraceMonotoneUnderConstantLoad) {
  const Soc soc = Soc::kirin990();
  ThermalModel t(soc.processor(static_cast<std::size_t>(soc.find(ProcKind::kCpuBig))));
  double prev = t.temperature_c();
  for (int i = 0; i < 200; ++i) {
    const double cur = t.step(1.0, 1.0);
    EXPECT_GE(cur, prev - 1e-9);  // heating phase is monotone
    prev = cur;
  }
}

TEST(CoverageExtra, StageIntensityZeroForEmptySlice) {
  Fixture fx({ModelId::kResNet50});
  ModelPlan mp;
  mp.model_index = 0;
  mp.slices = {{0, 0}, {0, fx.eval->model(0).num_layers()}, {0, 0}, {0, 0}};
  EXPECT_DOUBLE_EQ(fx.eval->stage_intensity(mp, 0), 0.0);
  EXPECT_DOUBLE_EQ(fx.eval->stage_solo_ms(mp, 0), 0.0);
  EXPECT_GT(fx.eval->stage_solo_ms(mp, 1), 0.0);
}

TEST(CoverageExtra, SimTaskWithZeroDurationCompletes) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {
      sim_task(0, 0, 1, 0.0, 0.0, 0.0, 0.0),
      sim_task(0, 1, 2, 5.0, 0.0, 0.0, 0.0),
  };
  const Timeline t = simulate(soc, tasks, {});
  EXPECT_NEAR(t.makespan_ms(), 5.0, 1e-6);
  EXPECT_DOUBLE_EQ(t.tasks[0].duration_ms(), 0.0);
}

TEST(CoverageExtra, EvaluatorMakespanZeroForEmptyPlan) {
  Fixture fx({ModelId::kAlexNet});
  PipelinePlan empty;
  empty.num_stages = 4;
  EXPECT_DOUBLE_EQ(fx.eval->makespan_ms(empty), 0.0);
  EXPECT_DOUBLE_EQ(fx.eval->total_bubble_ms(empty), 0.0);
  EXPECT_TRUE(fx.eval->satisfies_memory(empty));
}

TEST(CoverageExtra, EvaluatorHandlesDefaultConstructedPlan) {
  // No models and no stages: m + K - 1 would wrap to SIZE_MAX, and the
  // memory check used to loop over that many columns.
  Fixture fx({ModelId::kAlexNet});
  const PipelinePlan empty{};
  EXPECT_EQ(wavefront_columns(0, 0), 0u);
  EXPECT_TRUE(fx.eval->satisfies_memory(empty));
  EXPECT_DOUBLE_EQ(fx.eval->makespan_ms(empty), 0.0);
  EXPECT_DOUBLE_EQ(fx.eval->total_bubble_ms(empty), 0.0);
  EXPECT_TRUE(fx.eval->stage_times(empty, true).empty());
}

TEST(CoverageExtra, ModelIntensityMatchesTableIntensity) {
  Fixture fx({ModelId::kSqueezeNet});
  const std::size_t cpu_b =
      static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig));
  const std::size_t n = fx.eval->model(0).num_layers();
  EXPECT_DOUBLE_EQ(fx.eval->model_intensity(0),
                   fx.eval->table(0).intensity(cpu_b, 0, n - 1));
}

TEST(CoverageExtra, BandDegradesGracefullyWithoutNpu) {
  // A Soc with the NPU removed: Band and the planner must still work.
  const Soc base = Soc::kirin990();
  std::vector<Processor> procs;
  for (const Processor& p : base.processors()) {
    if (p.kind != ProcKind::kNpu) procs.push_back(p);
  }
  const Soc no_npu("Kirin990-noNPU", std::move(procs), base.bus_bw_gbps(),
                   base.mem_capacity_bytes(), base.available_bytes(),
                   base.mem_states());
  Fixture fx(testing_util::mixed_four(), no_npu);
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_EQ(r.plan.num_stages, 3u);
  EXPECT_GT(simulate_plan(r.plan, *fx.eval).makespan_ms(), 0.0);
}

}  // namespace
}  // namespace h2p
