#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "test_helpers.h"

namespace h2p {
namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr double kG = 1.0e9;

double params_mb(ModelId id) { return zoo_model(id).total_param_bytes() / kMB; }
double gflops(ModelId id) { return zoo_model(id).total_flops() / kG; }

TEST(ModelZoo, AllTenModelsBuild) {
  EXPECT_EQ(all_model_ids().size(), kNumZooModels);
  for (ModelId id : all_model_ids()) {
    const Model& m = zoo_model(id);
    EXPECT_GT(m.num_layers(), 0u) << to_string(id);
    EXPECT_GT(m.total_flops(), 0.0) << to_string(id);
    EXPECT_EQ(m.name(), to_string(id));
  }
}

// Published parameter counts (fp32 bytes) within generous tolerance — the
// zoo uses fused blocks, so we check the right order of magnitude and the
// relationships the paper's observations depend on.
TEST(ModelZoo, AlexNetSize) {
  EXPECT_NEAR(params_mb(ModelId::kAlexNet), 233.0, 40.0);  // ~61M params
}

TEST(ModelZoo, Vgg16Size) {
  EXPECT_NEAR(params_mb(ModelId::kVGG16), 528.0, 60.0);  // ~138M params
}

TEST(ModelZoo, SqueezeNetIsTiny) {
  // The paper quotes 4.8 MB.
  EXPECT_LT(params_mb(ModelId::kSqueezeNet), 10.0);
  EXPECT_GT(params_mb(ModelId::kSqueezeNet), 2.0);
}

TEST(ModelZoo, GoogLeNetSize) {
  // The paper quotes 23 MB.
  EXPECT_NEAR(params_mb(ModelId::kGoogLeNet), 25.0, 12.0);
}

TEST(ModelZoo, ResNet50Size) {
  EXPECT_NEAR(params_mb(ModelId::kResNet50), 98.0, 20.0);  // ~25.6M params
}

TEST(ModelZoo, BertSize) {
  EXPECT_NEAR(params_mb(ModelId::kBERT), 420.0, 60.0);  // ~110M params
}

TEST(ModelZoo, VitSize) {
  EXPECT_NEAR(params_mb(ModelId::kViT), 330.0, 60.0);  // ~86M params
}

TEST(ModelZoo, MobileNetV2Size) {
  EXPECT_NEAR(params_mb(ModelId::kMobileNetV2), 13.5, 6.0);  // ~3.5M params
}

TEST(ModelZoo, FlopOrdering) {
  // Heavy vs light compute, per the published FLOP counts.
  EXPECT_GT(gflops(ModelId::kVGG16), 10.0);
  EXPECT_GT(gflops(ModelId::kYOLOv4), 20.0);
  EXPECT_GT(gflops(ModelId::kBERT), 15.0);
  EXPECT_LT(gflops(ModelId::kMobileNetV2), 1.5);
  EXPECT_LT(gflops(ModelId::kSqueezeNet), 3.0);
  EXPECT_GT(gflops(ModelId::kVGG16), gflops(ModelId::kAlexNet));
  EXPECT_GT(gflops(ModelId::kResNet50), gflops(ModelId::kGoogLeNet));
}

TEST(ModelZoo, MobileNetV2Has28SlicePoints) {
  // Appendix A's example counts 28 sliceable convolutional units.
  EXPECT_EQ(zoo_model(ModelId::kMobileNetV2).num_layers(), 28u);
}

TEST(ModelZoo, NpuSupportSplit) {
  // Pure CNNs run fully on the NPU; YOLOv4 (Mish/Upsample), BERT and ViT
  // (Attention/LayerNorm/GELU) must fall back — the paper's Fig 1 errors.
  EXPECT_TRUE(zoo_model(ModelId::kAlexNet).fully_npu_supported());
  EXPECT_TRUE(zoo_model(ModelId::kVGG16).fully_npu_supported());
  EXPECT_TRUE(zoo_model(ModelId::kResNet50).fully_npu_supported());
  EXPECT_TRUE(zoo_model(ModelId::kSqueezeNet).fully_npu_supported());
  EXPECT_FALSE(zoo_model(ModelId::kYOLOv4).fully_npu_supported());
  EXPECT_FALSE(zoo_model(ModelId::kBERT).fully_npu_supported());
  EXPECT_FALSE(zoo_model(ModelId::kViT).fully_npu_supported());
}

TEST(ModelZoo, SizeClassStratification) {
  // Fig 9's stratification: BERT/ViT/YOLOv4 large, SqueezeNet/MobileNetV2/
  // GoogLeNet light.
  EXPECT_EQ(size_class(ModelId::kBERT), SizeClass::kLarge);
  EXPECT_EQ(size_class(ModelId::kViT), SizeClass::kLarge);
  EXPECT_EQ(size_class(ModelId::kYOLOv4), SizeClass::kLarge);
  EXPECT_EQ(size_class(ModelId::kSqueezeNet), SizeClass::kLight);
  EXPECT_EQ(size_class(ModelId::kMobileNetV2), SizeClass::kLight);
  EXPECT_EQ(size_class(ModelId::kGoogLeNet), SizeClass::kLight);
  EXPECT_EQ(size_class(ModelId::kResNet50), SizeClass::kMedium);
}

TEST(ModelZoo, ExtendedIdsIncludeSceneAppModels) {
  EXPECT_EQ(extended_model_ids().size(), kNumAllModels);
  // The evaluation zoo stays at ten so random workloads match the paper.
  EXPECT_EQ(all_model_ids().size(), kNumZooModels);
}

TEST(ModelZoo, FaceNetShape) {
  const Model& m = zoo_model(ModelId::kFaceNet);
  // InceptionResNetV1: ~25-30M params, a few GFLOPs, NPU-runnable CNN.
  EXPECT_NEAR(m.total_param_bytes() / kMB, 105.0, 60.0);
  EXPECT_GT(m.total_flops() / kG, 1.0);
  EXPECT_TRUE(m.fully_npu_supported());
  EXPECT_GT(m.num_layers(), 20u);
}

TEST(ModelZoo, AgeGenderNetIsSmallAndFast) {
  const Model& m = zoo_model(ModelId::kAgeGenderNet);
  EXPECT_LT(m.total_flops() / kG, 2.0);
  EXPECT_TRUE(m.fully_npu_supported());
}

TEST(ModelZoo, Gpt2DecoderIsTransformerLike) {
  const Model& m = zoo_model(ModelId::kGPT2Decoder);
  // GPT-2 small: ~124M params (wte 38M + 12 x 7M + tied head).
  EXPECT_GT(m.total_param_bytes() / kMB, 300.0);
  EXPECT_FALSE(m.fully_npu_supported());  // embedding/LN/GELU block the NPU
  EXPECT_EQ(m.first_npu_unsupported(0, m.num_layers() - 1), 0u);
}

TEST(ModelZoo, ZooModelReturnsStableReference) {
  const Model& a = zoo_model(ModelId::kBERT);
  const Model& b = zoo_model(ModelId::kBERT);
  EXPECT_EQ(&a, &b);
}

TEST(ModelZoo, BuildModelIsFreshCopy) {
  const Model a = build_model(ModelId::kAlexNet);
  EXPECT_EQ(a.num_layers(), zoo_model(ModelId::kAlexNet).num_layers());
}

class ZooModelInvariants : public ::testing::TestWithParam<ModelId> {};

TEST_P(ZooModelInvariants, LayerChainIsWellFormed) {
  const Model& m = zoo_model(GetParam());
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    const Layer& l = m.layer(i);
    EXPECT_GE(l.flops, 0.0) << l.name;
    EXPECT_GT(l.output_bytes, 0.0) << l.name;
    EXPECT_GT(l.locality, 0.0) << l.name;
    EXPECT_LE(l.locality, 1.0) << l.name;
    EXPECT_FALSE(l.name.empty());
  }
}

TEST_P(ZooModelInvariants, PrefixSumsConsistent) {
  const Model& m = zoo_model(GetParam());
  const std::size_t n = m.num_layers();
  const std::size_t mid = n / 2;
  if (mid == 0 || mid >= n) return;
  EXPECT_NEAR(m.range_flops(0, mid - 1) + m.range_flops(mid, n - 1),
              m.total_flops(), m.total_flops() * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooModelInvariants,
                         ::testing::ValuesIn(all_model_ids()),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace h2p
