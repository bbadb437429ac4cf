#include <gtest/gtest.h>

#include "models/layer.h"
#include "test_helpers.h"

namespace h2p {
namespace {

TEST(Layer, Conv2dFlopsFormula) {
  // 2 * k^2 * in_c * out_c * out_h * out_w
  const Layer l = make_conv2d("c", 3, 64, 3, 112, 112);
  EXPECT_DOUBLE_EQ(l.flops, 2.0 * 9 * 3 * 64 * 112 * 112);
  EXPECT_DOUBLE_EQ(l.param_bytes, 9.0 * 3 * 64 * 4);
}

TEST(Layer, Conv2dGroupsReduceCost) {
  const Layer dense = make_conv2d("d", 64, 64, 3, 14, 14, 1);
  const Layer grouped = make_conv2d("g", 64, 64, 3, 14, 14, 4);
  EXPECT_DOUBLE_EQ(grouped.flops * 4, dense.flops);
  EXPECT_DOUBLE_EQ(grouped.param_bytes * 4, dense.param_bytes);
}

TEST(Layer, DepthwiseIsBandwidthHungry) {
  const Layer dw = make_depthwise("dw", 128, 3, 56, 56);
  EXPECT_DOUBLE_EQ(dw.flops, 2.0 * 9 * 128 * 56 * 56);
  // Low arithmetic intensity compared to a dense conv of the same shape.
  const Layer dense = make_conv2d("c", 128, 128, 3, 56, 56);
  EXPECT_LT(dw.arithmetic_intensity(), dense.arithmetic_intensity());
}

TEST(Layer, FullyConnectedIsMemoryBound) {
  const Layer fc = make_fully_connected("fc", 4096, 4096);
  // GEMV at batch 1: ~2 FLOPs per weight byte / 4 -> intensity ~ 0.5.
  EXPECT_LT(fc.arithmetic_intensity(), 1.0);
  EXPECT_DOUBLE_EQ(fc.flops, 2.0 * 4096 * 4096);
  EXPECT_LT(fc.locality, 0.3);
}

TEST(Layer, AttentionFlopsIncludeScoreTerm) {
  const Layer a = make_attention("attn", 128, 768, 12);
  const double proj = 4.0 * 128 * 768 * 768;
  const double score = 2.0 * 128 * 128 * 768;
  EXPECT_DOUBLE_EQ(a.flops, 2.0 * (proj + score));
  EXPECT_DOUBLE_EQ(a.param_bytes, 4.0 * 768 * 768 * 4);
}

TEST(Layer, EmbeddingParamsAreTableSized) {
  const Layer e = make_embedding("emb", 30522, 768, 128);
  EXPECT_DOUBLE_EQ(e.param_bytes, 30522.0 * 768 * 4);
  // But the working set only covers touched rows.
  EXPECT_LT(e.working_set_bytes, e.param_bytes);
}

TEST(Layer, ArithmeticIntensityZeroTraffic) {
  Layer l;
  l.flops = 100.0;
  l.param_bytes = l.input_bytes = l.output_bytes = 0.0;
  EXPECT_DOUBLE_EQ(l.arithmetic_intensity(), 0.0);
}

TEST(Layer, NpuSupportMatrix) {
  // Dense CNN ops run on the NPU.
  EXPECT_TRUE(npu_supports(LayerKind::kConv2D));
  EXPECT_TRUE(npu_supports(LayerKind::kFullyConnected));
  EXPECT_TRUE(npu_supports(LayerKind::kPool));
  EXPECT_TRUE(npu_supports(LayerKind::kReLU));
  // The fallback triggers from the paper's Fig. 1.
  EXPECT_FALSE(npu_supports(LayerKind::kAttention));
  EXPECT_FALSE(npu_supports(LayerKind::kLayerNorm));
  EXPECT_FALSE(npu_supports(LayerKind::kGELU));
  EXPECT_FALSE(npu_supports(LayerKind::kMish));
  EXPECT_FALSE(npu_supports(LayerKind::kEmbedding));
  EXPECT_FALSE(npu_supports(LayerKind::kUpsample));
}

TEST(Layer, ToStringCoversAllKinds) {
  for (int k = 0; k <= static_cast<int>(LayerKind::kUpsample); ++k) {
    EXPECT_STRNE(to_string(static_cast<LayerKind>(k)), "?");
  }
}

TEST(Layer, TranscendentalActivationsCostMore) {
  const Layer relu = make_activation("r", LayerKind::kReLU, 1000.0);
  const Layer gelu = make_activation("g", LayerKind::kGELU, 1000.0);
  EXPECT_GT(gelu.flops, relu.flops);
}

class LayerFactoryNonNegative
    : public ::testing::TestWithParam<Layer> {};

TEST_P(LayerFactoryNonNegative, AllCostFieldsNonNegative) {
  const Layer& l = GetParam();
  EXPECT_GE(l.flops, 0.0);
  EXPECT_GE(l.param_bytes, 0.0);
  EXPECT_GE(l.input_bytes, 0.0);
  EXPECT_GE(l.output_bytes, 0.0);
  EXPECT_GE(l.working_set_bytes, 0.0);
  EXPECT_GT(l.locality, 0.0);
  EXPECT_LE(l.locality, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Factories, LayerFactoryNonNegative,
    ::testing::Values(make_conv2d("c", 3, 64, 3, 112, 112),
                      make_depthwise("d", 64, 3, 56, 56),
                      make_fully_connected("f", 1024, 1000),
                      make_matmul("m", 128, 768, 3072),
                      make_attention("a", 197, 768, 12),
                      make_layer_norm("ln", 128, 768),
                      make_batch_norm("bn", 64, 56, 56),
                      make_pool("p", 64, 28, 28, 2),
                      make_activation("relu", LayerKind::kReLU, 1e5),
                      make_activation("mish", LayerKind::kMish, 1e5),
                      make_add("add", 1e5), make_concat("cat", 1e5),
                      make_softmax("sm", 1e4),
                      make_embedding("e", 30522, 768, 128),
                      make_upsample("u", 256, 26, 26)));

}  // namespace
}  // namespace h2p
