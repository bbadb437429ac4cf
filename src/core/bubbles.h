#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "contention/contention_model.h"
#include "core/plan.h"
#include "models/model.h"
#include "soc/cost_model.h"
#include "soc/soc.h"

namespace h2p {

/// Wavefront column count of an m-model, K-stage plan: m + K - 1, or 0 for
/// an empty plan (where m + K - 1 would wrap when K is 0 too).
[[nodiscard]] constexpr std::size_t wavefront_columns(std::size_t m, std::size_t K) {
  return m == 0 ? 0 : m + K - 1;
}

/// Static (planning-time) evaluation of a pipeline plan.
///
/// Holds one CostTable per model (their per-processor blocks come from the
/// per-thread profile store, soc/cost_model.h) and the contention model
/// for one request sequence on one Soc, and evaluates plans under the
/// synchronous-wavefront abstraction the paper's Def. 3 uses: in column j,
/// the slices { M_k^i : i + k = j } execute concurrently; the column takes
/// as long as its slowest member and every faster member idles (a pipeline
/// bubble, Eq. 3).  The discrete-event simulator (sim/) is the asynchronous ground
/// truth; this evaluator is what the planner itself optimizes against.
class StaticEvaluator {
 public:
  StaticEvaluator(const Soc& soc, std::vector<const Model*> models);

  [[nodiscard]] const Soc& soc() const { return *soc_; }
  [[nodiscard]] std::size_t num_models() const { return models_.size(); }
  [[nodiscard]] const Model& model(std::size_t idx) const { return *models_[idx]; }
  [[nodiscard]] const CostTable& table(std::size_t idx) const { return tables_[idx]; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] const ContentionModel& contention() const { return contention_; }

  /// Process-unique id stamped at construction (never 0).  Caches of values
  /// derived from this evaluator key on it rather than on its address:
  /// evaluators built one after another can share a stack address.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Dense coupling row for victim processor `p`, zero-padded to
  /// `padded_procs()` doubles (diagonal 0): the left operand of the
  /// fixed-order Eq. 2 dot product used by `stage_times` and the
  /// incremental scorer's column rescoring.
  [[nodiscard]] const double* coupling_row(std::size_t p) const {
    return coupling_rows_.data() + p * padded_procs_;
  }
  [[nodiscard]] std::size_t padded_procs() const { return padded_procs_; }

  /// Solo time of one stage of a model plan (exec + inbound copy; Eq. 2
  /// terms 1 + 2).  Empty slices cost zero.
  [[nodiscard]] double stage_solo_ms(const ModelPlan& mp, std::size_t k) const;

  /// Contention intensity / memory sensitivity of one stage's slice.
  [[nodiscard]] double stage_intensity(const ModelPlan& mp, std::size_t k) const;
  [[nodiscard]] double stage_sensitivity(const ModelPlan& mp, std::size_t k) const;

  /// Whole-model contention intensity measured on the CPU big cluster —
  /// the proxy the classifier thresholds on (§III).
  [[nodiscard]] double model_intensity(std::size_t idx) const;

  /// Stage-time grid times[slot][k], with the co-execution slowdown of each
  /// wavefront column applied when `with_contention`.
  [[nodiscard]] std::vector<std::vector<double>> stage_times(
      const PipelinePlan& plan, bool with_contention) const;

  /// Sum over wavefront columns of the column maximum — the static makespan.
  [[nodiscard]] double makespan_ms(const PipelinePlan& plan,
                                   bool with_contention = true) const;

  /// Eq. 3 summed over all columns: total idle time under the wavefront
  /// abstraction (includes the ramp-up head and drain tail).
  [[nodiscard]] double total_bubble_ms(const PipelinePlan& plan,
                                       bool with_contention = true) const;

  /// `makespan_ms` and `total_bubble_ms` of one plan from a single
  /// `stage_times` grid, bit-identical to the two separate calls.
  struct StaticSummary {
    double makespan_ms = 0.0;
    double bubble_ms = 0.0;
  };
  [[nodiscard]] StaticSummary summarize(const PipelinePlan& plan,
                                        bool with_contention = true) const;

  /// Resident bytes of one model while it is in flight (weights of all
  /// non-empty slices + its largest activation) — constraint (6).
  [[nodiscard]] double resident_bytes(const ModelPlan& mp) const;

  /// True if no wavefront column exceeds the Soc's available memory.
  /// Each slot's resident bytes are memoized per thread under (generation,
  /// model index, slices), so a candidate that changes one model's slices
  /// recomputes one slot.
  [[nodiscard]] bool satisfies_memory(const PipelinePlan& plan) const;

 private:
  const Soc* soc_;
  std::vector<const Model*> models_;
  CostModel cost_;
  ContentionModel contention_;
  std::vector<CostTable> tables_;
  std::vector<double> model_intensity_;
  std::vector<double> coupling_rows_;  // P x padded_procs_, diagonal 0
  std::size_t padded_procs_ = 0;
  std::uint64_t generation_ = 0;
};

/// Algorithm 1 on model `idx` of `eval` over `num_stages` stages: the
/// slices of `partition_model(eval.table(idx), num_stages)`, memoized per
/// thread by (exact SoC fingerprint, model content hash, K).  The slicing is
/// a pure function of those three, so a memo hit is the slicing a fresh run
/// would compute.  Each thread owns its memo (`thread_local`, no mutex);
/// bounded at `slicing_memo::kSocCapacity` SoC views of `kModelsPerSoc`
/// slicings each, both with LRU eviction.
std::vector<Slice> horizontal_slices(const StaticEvaluator& eval, std::size_t idx,
                                     std::size_t num_stages);

namespace slicing_memo {
inline constexpr std::size_t kSocCapacity = 128;
inline constexpr std::size_t kModelsPerSoc = 64;
/// Drops every slicing the calling thread's memo holds; other threads'
/// memos keep theirs.
void clear();
}  // namespace slicing_memo

/// Build the default horizontal plan: every model sliced by Algorithm 1 in
/// the original order (no reordering, no stealing).  The entry point the
/// planner, baselines and tests share.  The trailing unnamed parameter
/// exists only so the frozen perfbench sources, which still pass `nullptr`,
/// compile; it goes with the next benchmark change.
PipelinePlan horizontal_plan(const StaticEvaluator& eval, std::size_t num_stages,
                             std::nullptr_t = nullptr);

}  // namespace h2p
