#include <gtest/gtest.h>

#include "baselines/annealing.h"
#include "baselines/band.h"
#include "baselines/exhaustive.h"
#include "baselines/mnn_serial.h"
#include "baselines/pipeit.h"
#include "core/planner.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

TEST(MnnSerial, RunsEverythingOnCpuBig) {
  Fixture fx(testing_util::mixed_four());
  const Timeline t = run_mnn_serial(*fx.eval);
  const auto cpu_b = static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig));
  ASSERT_EQ(t.tasks.size(), fx.models.size());
  for (const TaskRecord& r : t.tasks) EXPECT_EQ(r.proc_idx, cpu_b);
  EXPECT_NEAR(t.makespan_ms(), mnn_serial_latency_ms(*fx.eval), 1e-6);
}

TEST(MnnSerial, LatencyIsSumOfSoloTimes) {
  Fixture fx({ModelId::kSqueezeNet, ModelId::kAlexNet});
  const auto cpu_b = static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig));
  double expected = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    expected += fx.eval->table(i).exec_ms(cpu_b, 0, fx.eval->model(i).num_layers() - 1);
  }
  EXPECT_NEAR(mnn_serial_latency_ms(*fx.eval), expected, 1e-9);
}

TEST(PipeIt, SplitBalancesBigAndSmall) {
  Fixture fx({ModelId::kVGG16});
  const std::size_t b = pipeit_split(*fx.eval, 0);
  const std::size_t n = fx.eval->model(0).num_layers();
  EXPECT_GT(b, 0u);
  EXPECT_LT(b, n);
  // The big cluster (faster) should own the majority of layers.
  EXPECT_GT(b, n / 2);
}

TEST(PipeIt, UsesOnlyCpuClusters) {
  Fixture fx(testing_util::mixed_four());
  const Timeline t = run_pipeit(*fx.eval);
  const auto cpu_b = static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig));
  const auto cpu_s = static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuSmall));
  for (const TaskRecord& r : t.tasks) {
    EXPECT_TRUE(r.proc_idx == cpu_b || r.proc_idx == cpu_s);
  }
}

TEST(PipeIt, BeatsSerialOnHomogeneousStream) {
  // Pipe-it's design target: a stream of homogeneous DNN requests, where
  // steady-state pipelining over big+small beats serial big-only execution.
  // (On heterogeneous streams with a heavy head-of-line model the two-stage
  // CPU pipeline can lose to serial — which is exactly the gap Hetero2Pipe's
  // use of GPU/NPU closes.)
  Fixture fx(std::vector<ModelId>(8, ModelId::kResNet50));
  EXPECT_LT(run_pipeit(*fx.eval).makespan_ms(),
            run_mnn_serial(*fx.eval).makespan_ms());
}

TEST(Band, DispatchesEveryModel) {
  Fixture fx(testing_util::mixed_six());
  const auto dispatches = band_dispatch(*fx.eval);
  EXPECT_EQ(dispatches.size(), fx.models.size());
}

TEST(Band, NpuFriendlyModelsPreferNpu) {
  // A lone ResNet50 should land on the (much faster) NPU.
  Fixture fx({ModelId::kResNet50});
  const auto dispatches = band_dispatch(*fx.eval);
  const auto npu = static_cast<std::size_t>(fx.soc.find(ProcKind::kNpu));
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].proc_idx, npu);
  EXPECT_FALSE(dispatches[0].npu_fallback);
}

TEST(Band, BertTriggersFallbackOrAvoidsNpu) {
  Fixture fx({ModelId::kBERT});
  const auto dispatches = band_dispatch(*fx.eval);
  const auto npu = static_cast<std::size_t>(fx.soc.find(ProcKind::kNpu));
  // BERT's embedding blocks the NPU at layer 0, so either Band picks a
  // different processor or it records an immediate fallback.
  if (dispatches[0].proc_idx == npu) {
    EXPECT_TRUE(dispatches[0].npu_fallback);
    EXPECT_EQ(dispatches[0].fallback_layer, 0u);
  }
}

TEST(Band, TimelineCoversAllModels) {
  Fixture fx(testing_util::mixed_six());
  const Timeline t = run_band(*fx.eval);
  std::vector<bool> seen(fx.models.size(), false);
  for (const TaskRecord& r : t.tasks) seen[r.model_idx] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Band, BeatsSerialByUsingHeterogeneousProcessors) {
  Fixture fx(testing_util::mixed_six());
  EXPECT_LT(run_band(*fx.eval).makespan_ms(),
            run_mnn_serial(*fx.eval).makespan_ms());
}

TEST(Exhaustive, FindsAtLeastPlannerQuality) {
  Fixture fx({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet});
  const ExhaustiveResult ex = exhaustive_search(*fx.eval);
  EXPECT_FALSE(ex.truncated);
  EXPECT_EQ(ex.evaluated, 6u);  // 3! orderings

  const PlannerReport planner = Hetero2PipePlanner(*fx.eval).plan();
  const Timeline planner_t = simulate_plan(planner.plan, *fx.eval);
  // Exhaustive search covers every ordering with the same alignment pass,
  // so it cannot lose to the planner by more than noise.
  EXPECT_LE(ex.makespan_ms, planner_t.makespan_ms() * 1.05);
}

TEST(Exhaustive, TruncationFlag) {
  Fixture fx(testing_util::mixed_four());
  const ExhaustiveResult ex = exhaustive_search(*fx.eval, 5);
  EXPECT_EQ(ex.evaluated, 5u);
  EXPECT_TRUE(ex.truncated);
}

TEST(Annealing, ImprovesOrMatchesInitialPlan) {
  Fixture fx(testing_util::mixed_six());
  const PipelinePlan initial = horizontal_plan(*fx.eval, fx.soc.num_processors());
  const double initial_cost = fx.eval->makespan_ms(initial);
  AnnealingOptions opts;
  opts.iterations = 1500;
  const AnnealingResult r = simulated_annealing(*fx.eval, opts);
  EXPECT_LE(r.static_makespan_ms, initial_cost + 1e-9);
  for (const ModelPlan& mp : r.plan.models) {
    EXPECT_TRUE(mp.covers(fx.eval->model(mp.model_index).num_layers()));
  }
}

TEST(Annealing, DeterministicForSeed) {
  Fixture fx(testing_util::mixed_four());
  AnnealingOptions opts;
  opts.iterations = 400;
  opts.seed = 99;
  const AnnealingResult a = simulated_annealing(*fx.eval, opts);
  const AnnealingResult b = simulated_annealing(*fx.eval, opts);
  EXPECT_DOUBLE_EQ(a.static_makespan_ms, b.static_makespan_ms);
}


TEST(PlannerMemoryFlag, OverloadReported) {
  Fixture heavy({ModelId::kBERT, ModelId::kViT, ModelId::kVGG16, ModelId::kBERT,
                 ModelId::kViT, ModelId::kVGG16});
  EXPECT_FALSE(Hetero2PipePlanner(*heavy.eval).plan().memory_ok);
  Fixture light({ModelId::kSqueezeNet, ModelId::kMobileNetV2});
  EXPECT_TRUE(Hetero2PipePlanner(*light.eval).plan().memory_ok);
}

}  // namespace
}  // namespace h2p
