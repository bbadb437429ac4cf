#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bubbles.h"
#include "core/plan.h"
#include "exec/compiled_plan.h"

namespace h2p {

/// Incremental static (wavefront) scorer for single-model plan edits.
///
/// `StaticEvaluator::makespan_ms` rebuilds the full stage_times grid and
/// every wavefront column's contended maximum — O(m·K²) contention work per
/// call.  The local-search passes, however, only ever change *one* model's
/// slices between scorings, and model slot i participates only in wavefront
/// columns j ∈ [i, i+K-1]: all other columns are unaffected.  This class
/// caches the per-cell solo/intensity/sensitivity values and the per-column
/// maxima, so re-scoring one model's candidate slices costs O(K²) contention
/// work plus an O(m+K) column-sum instead of the full grid.
///
/// Determinism contract: `score_with` / `base_score` are **bit-identical**
/// to a fresh `eval.makespan_ms(plan, /*with_contention=*/true)` on the
/// edited plan.  Affected columns are recomputed with the exact member
/// enumeration, aggressor ordering and max/sum reduction order of the
/// non-incremental code, and untouched columns reuse maxima that were
/// themselves computed that way, so every floating-point operation sequence
/// matches.  The planner's figure benches therefore reproduce unchanged.
///
/// `score_with` is const and touches no shared mutable state — safe to
/// call concurrently for independent candidates.
class IncrementalStaticScorer {
 public:
  IncrementalStaticScorer(const StaticEvaluator& eval, const PipelinePlan& plan);

  /// Static contended makespan of the current base plan.
  [[nodiscard]] double base_score() const { return base_score_; }

  /// Static contended makespan of the base plan with model slot `slot`'s
  /// slices replaced by `slices`.  Bit-identical to the full evaluation.
  [[nodiscard]] double score_with(std::size_t slot,
                                  std::span<const Slice> slices) const;

  /// Commit `slices` into the base plan and refresh the affected caches.
  void apply(std::size_t slot, std::span<const Slice> slices);

 private:
  /// One model row's per-stage values, viewed as raw per-stage arrays of
  /// `Kp_` entries (stages K_..Kp_-1 are zero padding).  The storage lives
  /// in a thread-local arena workspace in the .cpp: async prefetch jobs plan
  /// concurrently with the serving thread, and each thread's score_with
  /// calls reuse its own buffers without touching the heap.
  struct RowView {
    const double* solo = nullptr;
    const double* intensity = nullptr;
    const double* sensitivity = nullptr;
    const std::uint8_t* active = nullptr;  // non-empty slice (member criterion)
  };

  /// Per-stage solo/intensity/sensitivity of `slices` for one model (by
  /// cost-table index), written into the calling thread's workspace row.
  RowView fill_row(std::size_t model_index, std::span<const Slice> slices) const;

  /// Copy a filled row into the flat cell arrays at `slot`.
  void store_row(std::size_t slot, const RowView& row);

  /// Contended maximum of wavefront column j, reading row `slot` from
  /// `row_override` and every other row from the flat cell cache.
  /// Reproduces StaticEvaluator::stage_times + makespan_ms for that column
  /// exactly: same k-ascending member enumeration, the same dense
  /// fixed-order Eq. 2 dot product (util/simd.h), and a lane-wide max over
  /// the contended column times.
  [[nodiscard]] double column_max(std::size_t j, std::size_t slot,
                                  const RowView& row_override) const;

  /// Recompute the cached maxima of columns [lo, hi) and the base score.
  void refresh_columns(std::size_t lo, std::size_t hi);

  const StaticEvaluator* eval_;
  std::size_t m_ = 0;
  std::size_t K_ = 0;
  std::size_t Kp_ = 0;  // K_ padded to the SIMD lane multiple (row stride)
  std::vector<std::size_t> model_index_;  // slot -> model table index

  // Flat SoA cell grid, slot-major with stride Kp_: cell (slot i, stage k)
  // lives at i * Kp_ + k; entries k >= K_ are zero padding.  Column j's
  // members sit at (j-k)*Kp_ + k for ascending k — a fixed stride, so the
  // whole column spans one K_×Kp_ block of each array instead of K_
  // separately-allocated AoS rows.
  std::vector<double> cell_solo_;
  std::vector<double> cell_intensity_;
  std::vector<double> cell_sensitivity_;
  std::vector<std::uint8_t> cell_active_;

  std::vector<double> colmax_;            // [m+K-1] contended column maxima
  double base_score_ = 0.0;
};

/// Static makespan of a fork/join slice window — the DAG analogue of the
/// Def.-3 wavefront column sum, used by the graph planner to rank branch
/// offload candidates before paying for a DES scoring.
///
/// Slices are levelized by longest-path depth over their `deps` edges
/// (which must index into `slices` itself, i.e. the window is
/// self-contained).  A level's members co-run: each member is dilated by
/// the contention model against the level's members on *other* processors,
/// members sharing a processor serialize, and the level takes the slowest
/// processor's total.  Levels execute back-to-back, so the result is the
/// sum of level times — an upper-bound-flavoured surrogate (the DES lets
/// levels overlap) that preserves the ranking the greedy pass needs and is
/// exact for a chain window, where it reduces to the sum of slice times.
double fork_join_wavefront_ms(const ContentionModel& contention,
                              std::span<const exec::ScheduledSlice> slices,
                              bool with_contention = true);

}  // namespace h2p
