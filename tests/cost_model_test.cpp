#include <gtest/gtest.h>

#include <cstring>

#include "models/model_zoo.h"
#include "soc/cost_model.h"
#include "test_helpers.h"

namespace h2p {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  Soc soc_ = Soc::kirin990();
  CostModel cost_{soc_};

  [[nodiscard]] const Processor& proc(ProcKind k) const {
    return soc_.processor(static_cast<std::size_t>(soc_.find(k)));
  }
};

TEST_F(CostModelTest, LayerTimePositiveAndIncludesOverhead) {
  const Layer l = make_conv2d("c", 64, 64, 3, 56, 56);
  const double t = cost_.layer_time_ms(l, proc(ProcKind::kCpuBig));
  EXPECT_GT(t, proc(ProcKind::kCpuBig).launch_overhead_ms);
}

TEST_F(CostModelTest, RooflineIsMaxOfComputeAndMemory) {
  const Layer l = make_fully_connected("fc", 4096, 4096);
  const Processor& cpu = proc(ProcKind::kCpuBig);
  const double c = cost_.layer_compute_ms(l, cpu);
  const double m = cost_.layer_memory_ms(l, cpu);
  const double t = cost_.layer_time_ms(l, cpu);
  EXPECT_NEAR(t, std::max(c, m) + cpu.launch_overhead_ms, 1e-12);
}

TEST_F(CostModelTest, FcIsMemoryBoundOnCpu) {
  // Observation 2: batch-1 FC layers stream weights -> memory-bound.
  const Layer l = make_fully_connected("fc", 4096, 4096);
  const Processor& cpu = proc(ProcKind::kCpuBig);
  EXPECT_GT(cost_.layer_memory_ms(l, cpu), cost_.layer_compute_ms(l, cpu));
}

TEST_F(CostModelTest, DenseConvIsComputeBoundOnCpu) {
  const Layer l = make_conv2d("c", 256, 256, 3, 56, 56);
  const Processor& cpu = proc(ProcKind::kCpuBig);
  EXPECT_GT(cost_.layer_compute_ms(l, cpu), cost_.layer_memory_ms(l, cpu));
}

TEST_F(CostModelTest, EmbeddingTrafficUsesTouchedRowsNotTable) {
  const Layer l = make_embedding("e", 30522, 768, 128);
  const double bytes = cost_.layer_dram_bytes(l, proc(ProcKind::kCpuBig));
  EXPECT_LT(bytes, l.param_bytes);  // far less than streaming the table
}

TEST_F(CostModelTest, CopyScalesWithBytes) {
  const Processor& gpu = proc(ProcKind::kGpu);
  const double small = cost_.copy_ms(1024.0, gpu);
  const double large = cost_.copy_ms(100.0 * 1024 * 1024, gpu);
  EXPECT_GT(large, small);
  EXPECT_GE(small, gpu.copy_in_latency_ms);
}

TEST_F(CostModelTest, Fig1LatencyOrdering) {
  // NPU >> CPU_B >= GPU >> CPU_S on an NPU-friendly CNN (ResNet50).
  const Model& m = zoo_model(ModelId::kResNet50);
  const double npu = cost_.model_solo_ms(m, static_cast<std::size_t>(soc_.find(ProcKind::kNpu)));
  const double cpu_b = cost_.model_solo_ms(m, static_cast<std::size_t>(soc_.find(ProcKind::kCpuBig)));
  const double gpu = cost_.model_solo_ms(m, static_cast<std::size_t>(soc_.find(ProcKind::kGpu)));
  const double cpu_s = cost_.model_solo_ms(m, static_cast<std::size_t>(soc_.find(ProcKind::kCpuSmall)));
  EXPECT_LT(npu, 0.5 * cpu_b);       // NPU much faster
  EXPECT_LT(cpu_b, cpu_s * 0.6);     // big cluster much faster than small
  EXPECT_LT(std::abs(cpu_b - gpu) / cpu_b, 1.2);  // big CPU ~ GPU
}

TEST_F(CostModelTest, BatchingAffineOnMobileCpu) {
  // Fig 13: mobile processors scale ~linearly in batch.
  const Model& m = zoo_model(ModelId::kMobileNetV2);
  const Processor& cpu = proc(ProcKind::kCpuBig);
  const double b1 = cost_.model_batch_ms(m, cpu, 1);
  const double b4 = cost_.model_batch_ms(m, cpu, 4);
  const double b8 = cost_.model_batch_ms(m, cpu, 8);
  EXPECT_GT(b4, 2.5 * b1);
  EXPECT_NEAR((b8 - b4) / (b4 - b1), 4.0 / 3.0, 0.2);  // constant slope
}

TEST_F(CostModelTest, BatchingFlatOnDesktopGpuUntilCapacity) {
  const Model& m = zoo_model(ModelId::kMobileNetV2);
  const Processor cuda = Soc::desktop_cuda_gpu();
  const double b1 = cost_.model_batch_ms(m, cuda, 1);
  const double b16 = cost_.model_batch_ms(m, cuda, 16);
  const double b64 = cost_.model_batch_ms(m, cuda, 64);
  EXPECT_NEAR(b16, b1, b1 * 0.01);  // inside one wave
  EXPECT_GT(b64, b16);              // beyond capacity: extra waves
}

TEST_F(CostModelTest, BatchZeroIsFree) {
  const Model& m = zoo_model(ModelId::kSqueezeNet);
  EXPECT_DOUBLE_EQ(cost_.model_batch_ms(m, proc(ProcKind::kCpuBig), 0), 0.0);
}

// ---- CostTable --------------------------------------------------------------

TEST_F(CostModelTest, TableRangeAdditivity) {
  const Model& m = zoo_model(ModelId::kAlexNet);
  const CostTable table(m, cost_);
  const std::size_t n = m.num_layers();
  const std::size_t cpu_b = static_cast<std::size_t>(soc_.find(ProcKind::kCpuBig));
  const double whole = table.exec_ms(cpu_b, 0, n - 1);
  const double left = table.exec_ms(cpu_b, 0, n / 2);
  const double right = table.exec_ms(cpu_b, n / 2 + 1, n - 1);
  EXPECT_NEAR(whole, left + right, whole * 1e-9);
}

TEST_F(CostModelTest, TableEmptyRangeIsZero) {
  const Model& m = zoo_model(ModelId::kAlexNet);
  const CostTable table(m, cost_);
  EXPECT_DOUBLE_EQ(table.exec_ms(0, 3, 2), 0.0);
}

TEST_F(CostModelTest, NpuFallbackOnBert) {
  const Model& m = zoo_model(ModelId::kBERT);
  const CostTable table(m, cost_);
  const std::size_t npu = static_cast<std::size_t>(soc_.find(ProcKind::kNpu));
  const SliceCost c = table.slice_cost(npu, 0, m.num_layers() - 1);
  EXPECT_TRUE(c.used_npu_fallback);
  EXPECT_EQ(c.fallback_from_layer, 0u);  // embedding blocks immediately
  EXPECT_GT(c.total_ms, 0.0);
}

TEST_F(CostModelTest, NpuNoFallbackOnSupportedRange) {
  const Model& m = zoo_model(ModelId::kResNet50);
  const CostTable table(m, cost_);
  const std::size_t npu = static_cast<std::size_t>(soc_.find(ProcKind::kNpu));
  const SliceCost c = table.slice_cost(npu, 0, m.num_layers() - 1);
  EXPECT_FALSE(c.used_npu_fallback);
}

TEST_F(CostModelTest, NpuFallbackCostExceedsSupportedPrefix) {
  // YOLOv4: stem conv supported, stem.mish not.  Cost of [0, 1] on the NPU
  // must include the fallback trip.
  const Model& m = zoo_model(ModelId::kYOLOv4);
  const CostTable table(m, cost_);
  const std::size_t npu = static_cast<std::size_t>(soc_.find(ProcKind::kNpu));
  const SliceCost with_fb = table.slice_cost(npu, 0, 1);
  const SliceCost prefix = table.slice_cost(npu, 0, 0);
  EXPECT_TRUE(with_fb.used_npu_fallback);
  EXPECT_FALSE(prefix.used_npu_fallback);
  EXPECT_GT(with_fb.total_ms, prefix.total_ms);
}

TEST_F(CostModelTest, SensitivityAndIntensityInUnitInterval) {
  for (ModelId id : all_model_ids()) {
    const Model& m = zoo_model(id);
    const CostTable table(m, cost_);
    for (std::size_t k = 0; k < soc_.num_processors(); ++k) {
      const double s = table.mem_sensitivity(k, 0, m.num_layers() - 1);
      const double i = table.intensity(k, 0, m.num_layers() - 1);
      EXPECT_GE(s, 0.0) << to_string(id);
      EXPECT_LE(s, 1.0) << to_string(id);
      EXPECT_GE(i, 0.0) << to_string(id);
      EXPECT_LE(i, 1.0) << to_string(id);
    }
  }
}

TEST_F(CostModelTest, StageMsAddsBoundaryCopy) {
  const Model& m = zoo_model(ModelId::kVGG16);
  const CostTable table(m, cost_);
  const std::size_t gpu = static_cast<std::size_t>(soc_.find(ProcKind::kGpu));
  const double exec = table.exec_ms(gpu, 5, 10);
  const double stage = table.stage_ms(gpu, 5, 10);
  EXPECT_NEAR(stage - exec, table.boundary_copy_ms(gpu, 5), 1e-12);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The inline exec_ms / boundary_copy_ms against the out-of-line paths they
// shortcut, on every range of every zoo model on every processor of every
// SoC — NPU fallback ranges, empty ranges (i > j) and ranges past the
// model's end included.
TEST(CostTable, InlineReadsMatchSliceCostOnEveryZooRange) {
  std::size_t fallback_ranges = 0;
  for (const Soc& soc : {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    const CostModel cost(soc);
    for (ModelId id : extended_model_ids()) {
      const Model& m = zoo_model(id);
      const CostTable table(m, cost);
      const std::size_t n = m.num_layers();
      for (std::size_t k = 0; k < soc.num_processors(); ++k) {
        for (std::size_t i = 0; i <= n + 1; ++i) {
          ASSERT_TRUE(same_bits(table.boundary_copy_ms(k, i),
                                cost.copy_ms(m.boundary_bytes(i), soc.processor(k))))
              << soc.name() << " " << to_string(id) << " proc " << k << " at " << i;
          for (std::size_t j = 0; j <= n + 1; ++j) {
            const SliceCost c = table.slice_cost(k, i, j);
            fallback_ranges += c.used_npu_fallback ? 1 : 0;
            ASSERT_TRUE(same_bits(table.exec_ms(k, i, j), c.total_ms))
                << soc.name() << " " << to_string(id) << " proc " << k << " ["
                << i << ", " << j << "]";
          }
        }
      }
    }
  }
  EXPECT_GT(fallback_ranges, 0u);
}

// Property 2 (monotonicity) on every zoo model / CPU & GPU processors:
// widening a range never decreases exec time.
class MonotonicityTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(MonotonicityTest, ExecTimeMonotoneInRange) {
  const Soc soc = Soc::kirin990();
  const CostModel cost(soc);
  const Model& m = zoo_model(GetParam());
  const CostTable table(m, cost);
  const std::size_t n = m.num_layers();
  for (std::size_t k = 1; k < soc.num_processors(); ++k) {  // skip NPU fallback
    for (std::size_t i = 0; i + 1 < n; i += 3) {
      for (std::size_t j = i; j + 1 < n; j += 3) {
        EXPECT_LE(table.exec_ms(k, i, j), table.exec_ms(k, i, j + 1) + 1e-12);
        if (i + 1 <= j) {
          EXPECT_LE(table.exec_ms(k, i + 1, j), table.exec_ms(k, i, j) + 1e-12);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, MonotonicityTest,
                         ::testing::ValuesIn(all_model_ids()),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace h2p
