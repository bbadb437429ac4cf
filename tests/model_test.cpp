#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "models/model.h"
#include "models/model_zoo.h"

namespace h2p {
namespace {

Model tiny_model() {
  std::vector<Layer> layers;
  layers.push_back(make_conv2d("c1", 3, 16, 3, 32, 32));
  layers.push_back(make_activation("relu", LayerKind::kReLU, 16.0 * 32 * 32));
  layers.push_back(make_attention("attn", 64, 128, 4));
  layers.push_back(make_fully_connected("fc", 128, 10));
  return Model("tiny", std::move(layers));
}

TEST(Model, AggregatesMatchLayerSums) {
  const Model m = tiny_model();
  double flops = 0.0, params = 0.0;
  for (const Layer& l : m.layers()) {
    flops += l.flops;
    params += l.param_bytes;
  }
  EXPECT_DOUBLE_EQ(m.total_flops(), flops);
  EXPECT_DOUBLE_EQ(m.total_param_bytes(), params);
}

TEST(Model, RangeQueriesMatchManualSums) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.range_flops(0, 3), m.total_flops());
  EXPECT_DOUBLE_EQ(m.range_flops(1, 2),
                   m.layer(1).flops + m.layer(2).flops);
  EXPECT_DOUBLE_EQ(m.range_flops(2, 2), m.layer(2).flops);
}

TEST(Model, EmptyAndInvertedRangesAreZero) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.range_flops(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.range_param_bytes(3, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.range_flops(0, 99), 0.0);  // out of range guarded
}

TEST(Model, BoundaryBytes) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.boundary_bytes(0), m.layer(0).input_bytes);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(2), m.layer(1).output_bytes);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(m.num_layers()), m.layer(3).output_bytes);
}

TEST(Model, PeakActivation) {
  const Model m = tiny_model();
  double expected = 0.0;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    expected = std::max(expected, m.layer(i).input_bytes + m.layer(i).output_bytes);
  }
  EXPECT_DOUBLE_EQ(m.peak_activation_bytes(0, m.num_layers() - 1), expected);
}

/// The linear scan the sparse table replaced, kept as the oracle.
double linear_peak(const Model& m, std::size_t i, std::size_t j) {
  double peak = 0.0;
  for (std::size_t k = i; k <= j && k < m.num_layers(); ++k) {
    peak = std::max(peak, m.layer(k).input_bytes + m.layer(k).output_bytes);
  }
  return peak;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every [i, j] of `m`, plus inverted ranges and ends past the model.
void expect_peak_matches_scan(const Model& m) {
  const std::size_t n = m.num_layers();
  for (std::size_t i = 0; i <= n + 1; ++i) {
    for (std::size_t j = 0; j <= n + 2; ++j) {
      ASSERT_TRUE(same_bits(m.peak_activation_bytes(i, j), linear_peak(m, i, j)))
          << m.name() << " [" << i << ", " << j << "]";
    }
    ASSERT_TRUE(same_bits(m.peak_activation_bytes(i, std::numeric_limits<std::size_t>::max()),
                          linear_peak(m, i, std::numeric_limits<std::size_t>::max())))
        << m.name() << " [" << i << ", SIZE_MAX]";
  }
}

TEST(Model, PeakActivationMatchesLinearScanOnEveryZooRange) {
  for (const ModelId id : extended_model_ids()) {
    expect_peak_matches_scan(zoo_model(id));
    expect_peak_matches_scan(make_batched_model(zoo_model(id), 3));
  }
}

TEST(Model, PeakActivationOfEmptyModelIsZero) {
  const Model empty;
  expect_peak_matches_scan(empty);
  EXPECT_TRUE(same_bits(empty.peak_activation_bytes(0, 0), 0.0));
}

TEST(Model, PeakActivationFloorsLikeTheScan) {
  // Zero, negative-zero and NaN activations: the scan starts from +0.0 and
  // std::max keeps it, so the table must floor at +0.0 the same way.
  std::vector<Layer> layers(6);
  layers[1].input_bytes = -0.0;
  layers[2].output_bytes = std::numeric_limits<double>::quiet_NaN();
  layers[3].input_bytes = 64.0;
  layers[4].output_bytes = -5.0;
  layers[5].input_bytes = 64.0;
  expect_peak_matches_scan(Model("odd", std::move(layers)));
}

TEST(Model, FirstNpuUnsupportedFindsAttention) {
  const Model m = tiny_model();
  EXPECT_EQ(m.first_npu_unsupported(0, 3), 2u);  // attention at index 2
  EXPECT_EQ(m.first_npu_unsupported(0, 1), 2u);  // none in range -> j+1
  EXPECT_EQ(m.first_npu_unsupported(3, 3), 4u);  // FC supported
  EXPECT_FALSE(m.fully_npu_supported());
}

TEST(Model, FullyNpuSupportedWhenNoBlockers) {
  std::vector<Layer> layers;
  layers.push_back(make_conv2d("c", 3, 8, 3, 8, 8));
  layers.push_back(make_pool("p", 8, 4, 4, 2));
  const Model m("cnn", std::move(layers));
  EXPECT_TRUE(m.fully_npu_supported());
}

TEST(Model, EmptyModel) {
  const Model m("empty", {});
  EXPECT_EQ(m.num_layers(), 0u);
  EXPECT_DOUBLE_EQ(m.total_flops(), 0.0);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(0), 0.0);
  EXPECT_TRUE(m.fully_npu_supported());
}

}  // namespace
}  // namespace h2p
