#include "models/model.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace h2p {

Model::Model(std::string name, std::vector<Layer> layers)
    : name_(std::move(name)), layers_(std::move(layers)) {
  build_prefix_sums();
  build_peak_table();
  content_hash_ = compute_content_hash();
}

void Model::build_prefix_sums() {
  const std::size_t n = layers_.size();
  prefix_flops_.assign(n + 1, 0.0);
  prefix_params_.assign(n + 1, 0.0);
  prefix_acts_.assign(n + 1, 0.0);
  prefix_weight_stream_.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& l = layers_[i];
    prefix_flops_[i + 1] = prefix_flops_[i] + l.flops;
    prefix_params_[i + 1] = prefix_params_[i] + l.param_bytes;
    prefix_acts_[i + 1] = prefix_acts_[i] + l.input_bytes + l.output_bytes;
    prefix_weight_stream_[i + 1] = prefix_weight_stream_[i] + l.weight_stream_bytes();
  }
}

void Model::build_peak_table() {
  const std::size_t n = layers_.size();
  if (n == 0) return;
  const auto levels = static_cast<std::size_t>(std::bit_width(n));
  peak_table_.assign(levels * n, 0.0);
  // Level 0 is floored at +0.0 (which also drops NaN and -0.0), exactly as
  // a scan starting from peak = 0.0 would: every entry is then a
  // non-negative, non-NaN double, so any max order gives the same bits.
  for (std::size_t k = 0; k < n; ++k) {
    peak_table_[k] = std::max(0.0, layers_[k].input_bytes + layers_[k].output_bytes);
  }
  for (std::size_t l = 1; l < levels; ++l) {
    const double* prev = peak_table_.data() + (l - 1) * n;
    double* cur = peak_table_.data() + l * n;
    const std::size_t half = std::size_t{1} << (l - 1);
    for (std::size_t k = 0; k + 2 * half <= n; ++k) {
      cur[k] = std::max(prev[k], prev[k + half]);
    }
  }
}

double Model::total_flops() const { return prefix_flops_.back(); }
double Model::total_param_bytes() const { return prefix_params_.back(); }

double Model::range_flops(std::size_t i, std::size_t j) const {
  if (j < i || j >= layers_.size()) return 0.0;
  return prefix_flops_[j + 1] - prefix_flops_[i];
}

double Model::range_param_bytes(std::size_t i, std::size_t j) const {
  if (j < i || j >= layers_.size()) return 0.0;
  return prefix_params_[j + 1] - prefix_params_[i];
}

double Model::range_activation_bytes(std::size_t i, std::size_t j) const {
  if (j < i || j >= layers_.size()) return 0.0;
  return prefix_acts_[j + 1] - prefix_acts_[i];
}

double Model::range_weight_stream_bytes(std::size_t i, std::size_t j) const {
  if (j < i || j >= layers_.size()) return 0.0;
  return prefix_weight_stream_[j + 1] - prefix_weight_stream_[i];
}

double Model::peak_activation_bytes(std::size_t i, std::size_t j) const {
  const std::size_t n = layers_.size();
  if (i >= n || j < i) return 0.0;
  j = std::min(j, n - 1);
  const auto l = static_cast<std::size_t>(std::bit_width(j - i + 1)) - 1;
  const double* level = peak_table_.data() + l * n;
  return std::max(level[i], level[j + 1 - (std::size_t{1} << l)]);
}

std::size_t Model::first_npu_unsupported(std::size_t i, std::size_t j) const {
  for (std::size_t k = i; k <= j && k < layers_.size(); ++k) {
    if (!npu_supports(layers_[k].kind)) return k;
  }
  return j + 1;
}

bool Model::fully_npu_supported() const {
  if (layers_.empty()) return true;
  return first_npu_unsupported(0, layers_.size() - 1) == layers_.size();
}

std::uint64_t Model::compute_content_hash() const {
  // One record per node, in order: the layer fields, then the input edge
  // list (a chain: node i consumes node i-1).  GraphModel::topology_hash
  // emits the identical record stream for a linear graph.
  std::uint64_t h = kHashSeed;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layer_hash(layers_[i], h);
    const std::uint64_t num_inputs = i == 0 ? 0 : 1;
    h = hash_mix(h, num_inputs);
    if (i > 0) h = hash_mix(h, static_cast<std::uint64_t>(i - 1));
  }
  return hash_mix(h, static_cast<std::uint64_t>(layers_.size()));
}

Model make_batched_model(const Model& base, int batch) {
  if (batch <= 1) return base;
  const double b = batch;
  std::vector<Layer> layers(base.layers().begin(), base.layers().end());
  for (Layer& l : layers) {
    l.flops *= b;
    l.input_bytes *= b;
    l.output_bytes *= b;
    // Weights stay shared; the live working set grows with the activations.
    l.working_set_bytes = l.param_bytes + (l.working_set_bytes - l.param_bytes) * b;
  }
  return Model(base.name() + "@b" + std::to_string(batch), std::move(layers));
}

}  // namespace h2p
