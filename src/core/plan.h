#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace h2p {

/// Half-open layer range [begin, end) forming one pipeline stage of one
/// model (Def. 1).  Stage k always maps to processor k of the Soc, which is
/// ordered by descending processing power (§IV).  Empty slices are legal:
/// a model may skip a processor entirely.
struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool empty() const { return end <= begin; }
  [[nodiscard]] std::size_t size() const { return empty() ? 0 : end - begin; }

  friend bool operator==(const Slice&, const Slice&) = default;
};

/// The K-way slicing of one model in the pipeline.
struct ModelPlan {
  /// Index into the *original* request sequence (survives reordering).
  std::size_t model_index = 0;
  /// One slice per pipeline stage; slices tile [0, n) in order.
  std::vector<Slice> slices;
  /// High-contention flag assigned by the classifier (used by Alg. 2/3).
  bool high_contention = false;

  [[nodiscard]] std::size_t num_stages() const { return slices.size(); }

  /// True if no slice runs backwards (end < begin) and the non-empty slices
  /// are contiguous, ordered and cover exactly [0, n).
  [[nodiscard]] bool covers(std::size_t num_layers) const;
};

/// A full pipelining plan: the (possibly re-ordered) request sequence with a
/// K-way slicing per model.
struct PipelinePlan {
  std::size_t num_stages = 0;
  /// Models in pipeline-injection order.
  std::vector<ModelPlan> models;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace h2p
