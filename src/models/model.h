#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/layer.h"

namespace h2p {

/// A network in linearized (topologically ordered) form: a chain of
/// sliceable units.  Pipeline slicing (Def. 1) splits the chain at layer
/// boundaries; prefix sums make any [i, j] range query O(1), which is what
/// lets Algorithm 1 run in O(nK).
class Model {
 public:
  Model() : Model({}, {}) {}
  Model(std::string name, std::vector<Layer> layers);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return layers_[i]; }
  [[nodiscard]] std::span<const Layer> layers() const { return layers_; }

  // ---- whole-model aggregates --------------------------------------------
  [[nodiscard]] double total_flops() const;
  [[nodiscard]] double total_param_bytes() const;

  // ---- O(1) range queries over [i, j] inclusive ---------------------------
  [[nodiscard]] double range_flops(std::size_t i, std::size_t j) const;
  [[nodiscard]] double range_param_bytes(std::size_t i, std::size_t j) const;
  /// Raw activation bytes (input + output) of [i, j].
  [[nodiscard]] double range_activation_bytes(std::size_t i, std::size_t j) const;
  /// Sum of `Layer::weight_stream_bytes` over [i, j].
  [[nodiscard]] double range_weight_stream_bytes(std::size_t i, std::size_t j) const;

  /// Bytes crossing the boundary *into* layer i (the tensor a downstream
  /// pipeline stage must receive); layer 0 returns the network input size.
  [[nodiscard]] double boundary_bytes(std::size_t i) const {
    if (layers_.empty()) return 0.0;
    if (i == 0) return layers_.front().input_bytes;
    if (i >= layers_.size()) return layers_.back().output_bytes;
    return layers_[i - 1].output_bytes;
  }

  /// Largest single activation in [i, j] (peak-memory accounting), floored
  /// at 0.  O(1) through a sparse table built at construction: max is exact
  /// and order-free, so it equals a linear scan bit for bit.
  [[nodiscard]] double peak_activation_bytes(std::size_t i, std::size_t j) const;

  /// First layer index in [i, j] whose operator the NPU cannot run, or
  /// j + 1 when the whole range is supported.
  [[nodiscard]] std::size_t first_npu_unsupported(std::size_t i, std::size_t j) const;

  /// True if every operator in the model is NPU-runnable.
  [[nodiscard]] bool fully_npu_supported() const;

  /// Structural fingerprint: every layer's cost fields plus the implicit
  /// chain edge i-1 -> i.  Equal to `GraphModel::topology_hash()` of the
  /// same layers authored as a linear graph, so chain and graph entry
  /// points resolve to the same plan-cache entries.  The name is NOT part
  /// of the hash (cache keys carry it separately).  Computed once at
  /// construction: a Model is immutable afterwards.
  [[nodiscard]] std::uint64_t content_hash() const { return content_hash_; }

 private:
  void build_prefix_sums();
  void build_peak_table();
  [[nodiscard]] std::uint64_t compute_content_hash() const;

  std::string name_;
  std::vector<Layer> layers_;
  // prefix[i] = sum over layers [0, i-1]
  std::vector<double> prefix_flops_;
  std::vector<double> prefix_params_;
  std::vector<double> prefix_acts_;
  std::vector<double> prefix_weight_stream_;
  // Sparse table over max(0, input_bytes + output_bytes): level l (stride n)
  // holds the max of [i, i + 2^l).
  std::vector<double> peak_table_;
  std::uint64_t content_hash_ = 0;
};

/// Appendix-D batching: a batched request behaves like the same network
/// with every activation tensor (and the compute on it) scaled by the batch
/// size while the weights are shared.  On mobile processors (hardware batch
/// capacity ~1) this yields the paper's affine latency growth, and it lets
/// the planner align a batch of lightweight requests with one heavyweight
/// pipeline stage.
Model make_batched_model(const Model& base, int batch);

}  // namespace h2p
