#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace h2p {

/// Operator categories at the granularity the planner slices on.
///
/// Branching sub-graphs (Inception blocks, residual bottlenecks, CSP blocks,
/// fused multi-head attention) are represented as fused super-layers, which
/// matches the paper's coarse-grained K-way slicing (Def. 1).
enum class LayerKind : std::uint8_t {
  kConv2D,
  kDepthwiseConv2D,
  kFullyConnected,
  kMatMul,     // generic GEMM (transformer FFN projections)
  kAttention,  // fused multi-head self-attention
  kLayerNorm,
  kBatchNorm,
  kPool,
  kReLU,
  kGELU,
  kMish,       // YOLOv4 backbone activation
  kLeakyReLU,
  kSoftmax,
  kAdd,        // residual addition
  kConcat,
  kEmbedding,  // token embedding lookup
  kUpsample,   // YOLO neck resize
};

const char* to_string(LayerKind kind);

/// One sliceable unit of a network.
///
/// `flops` / `param_bytes` / activation sizes are derived from the layer's
/// tensor dimensions by the factory functions below.  `locality` in (0, 1]
/// describes cache friendliness: 1 means the working set streams through
/// caches perfectly (dense conv with small kernels); small values mean the
/// layer thrashes L2 and pushes traffic to DRAM (large GEMMs, fragmented
/// Fire/Inception blocks).  The cost model and the synthetic PMU both key
/// off this, which is how the Observation-2/3 contention profiles arise.
struct Layer {
  std::string name;
  LayerKind kind = LayerKind::kConv2D;
  double flops = 0.0;          // multiply-accumulates counted as 2 FLOPs
  double param_bytes = 0.0;    // fp32 weights
  double input_bytes = 0.0;    // fp32 input activation
  double output_bytes = 0.0;   // fp32 output activation
  double working_set_bytes = 0.0;  // tensors live simultaneously in-cache
  double locality = 0.8;

  /// Total bytes that must move if nothing is cached.
  [[nodiscard]] double naive_traffic_bytes() const {
    return param_bytes + input_bytes + output_bytes;
  }

  /// FLOPs per byte of naive traffic.
  [[nodiscard]] double arithmetic_intensity() const;

  /// Weight bytes streamed cold from DRAM per inference: an embedding only
  /// touches its gathered rows, every other layer its whole parameter set.
  [[nodiscard]] double weight_stream_bytes() const {
    return kind == LayerKind::kEmbedding ? output_bytes * 2.0 : param_bytes;
  }
};

/// True if the operator runs on typical mobile NPUs (HiAI / NNAPI op set).
/// Attention, LayerNorm, GELU/Mish/LeakyReLU, Embedding and Upsample are the
/// canonical fallback triggers (the paper's Fig. 1 reports YOLOv4 and BERT
/// erroring out on the Kirin 990 NPU for exactly these).
bool npu_supports(LayerKind kind);

/// Inverse of to_string(LayerKind); false for unknown spellings.  The graph
/// JSON wire format (core/serialize) round-trips kinds through this.
bool layer_kind_from_string(const std::string& s, LayerKind* out);

/// FNV-1a style mixing used by the structural fingerprints (Model content
/// hash, GraphModel topology hash, PlanCache keys).  Stable across runs and
/// platforms: doubles are hashed by bit pattern.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);
std::uint64_t hash_mix(std::uint64_t h, double v);
std::uint64_t hash_mix(std::uint64_t h, const std::string& s);
inline constexpr std::uint64_t kHashSeed = 1469598103934665603ull;  // FNV offset

/// Structural hash of one layer: every cost-relevant field, but not the
/// address or any container position.
std::uint64_t layer_hash(const Layer& layer, std::uint64_t h = kHashSeed);

// ---- Factory helpers (dimensions -> cost fields) --------------------------

Layer make_conv2d(std::string name, int in_c, int out_c, int kernel, int out_h,
                  int out_w, int groups = 1, double locality = 0.85);
Layer make_depthwise(std::string name, int channels, int kernel, int out_h,
                     int out_w);
Layer make_fully_connected(std::string name, int in_features, int out_features);
Layer make_matmul(std::string name, int m, int k, int n, double locality = 0.5);
Layer make_attention(std::string name, int seq_len, int dim, int heads);
Layer make_layer_norm(std::string name, int seq_len, int dim);
Layer make_batch_norm(std::string name, int channels, int h, int w);
Layer make_pool(std::string name, int channels, int out_h, int out_w, int kernel);
Layer make_activation(std::string name, LayerKind kind, double elements);
Layer make_add(std::string name, double elements);
Layer make_concat(std::string name, double elements);
Layer make_softmax(std::string name, double elements);
Layer make_embedding(std::string name, int vocab, int dim, int seq_len);
Layer make_upsample(std::string name, int channels, int out_h, int out_w);

}  // namespace h2p
