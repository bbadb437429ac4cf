#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/bubbles.h"
#include "core/plan.h"

namespace h2p {

/// Plan objective used by the local-search passes: lower is better.
/// Defaults to the static contention-aware makespan; the planner plugs in
/// the discrete-event simulator for higher-fidelity scoring.  Scorers must
/// be pure: the same plan always scores the same.
using PlanScorer = std::function<double(const PipelinePlan&)>;

struct WorkStealingOptions {
  /// Run the tail-bubble local search after the sliding-window pass.
  bool tail_optimization = true;
};

/// slices -> boundary representation: b[0] = 0 <= b[1] <= ... <= b[K] = n,
/// stage k spanning [b[k], b[k+1]).  Empty slices (leading, trailing or
/// interior) collapse onto the previous boundary, yielding the canonical
/// form `boundaries_to_slices` reproduces.
std::vector<std::size_t> slices_to_boundaries(const ModelPlan& mp,
                                              std::size_t num_layers);

/// Inverse of `slices_to_boundaries`: rewrite mp's slices from boundaries.
void boundaries_to_slices(ModelPlan& mp, const std::vector<std::size_t>& b);

/// Re-partition one model so its stage-time profile approaches `target`
/// (the critical path's profile), by stealing layers across adjacent stage
/// boundaries — Algorithm 3's inner loop, minimizing the Eq. 11 distance
/// sum |T_k - T_k^{i_c}| greedily one layer at a time.  A boundary shift at
/// k only changes stages k-1 and k, so candidates are evaluated via those
/// two stages' solo-time delta — no plan copies, no allocation per probe.
/// Returns the number of layers moved.
int align_to_profile(ModelPlan& mp, const StaticEvaluator& eval,
                     std::span<const double> target,
                     std::size_t max_moves = 1024);

/// Algorithm 3: slide a contention window of size K over the sequence; in
/// each window find the critical-path model and align every other member's
/// stages to it by work stealing.  Mutates the plan in place and returns
/// the total number of layer moves.  With `opts.tail_optimization`, ends
/// with `optimize_tail(plan, eval, scorer, score_out)`; `score_out` is
/// left untouched when no tail sweep ran.
int vertical_align(PipelinePlan& plan, const StaticEvaluator& eval,
                   const WorkStealingOptions& opts = {},
                   const PlanScorer& scorer = {}, double* score_out = nullptr);

/// The DES-scored tail sweep's pruning state: each slot's per-stage solo
/// row and the per-processor solo sums.  Processors run one task at a time
/// and contention only dilates tasks, so no schedule finishes before its
/// busiest processor's solo work: `bound` is that work with one slot
/// collapsed onto one processor, a lower bound on the DES makespan.
class CollapseBound {
 public:
  CollapseBound(const StaticEvaluator& eval, const PipelinePlan& plan);

  /// Busiest processor's solo work with `slot` collapsed onto processor
  /// `s`, where `collapse_ms` is the whole model's solo time there:
  /// max_k (proc_solo[k] - row[k]) + (k == s ? collapse_ms : 0), floored
  /// at 0.  O(K).
  [[nodiscard]] double bound(std::size_t slot, std::size_t s,
                             double collapse_ms) const;

  /// Commit `slot`'s collapse onto `s`: proc_solo[k] += new row[k] - row[k].
  void apply(std::size_t slot, std::size_t s, double collapse_ms);

 private:
  std::size_t K_ = 0;
  std::vector<double> row_;        // [m*K] slot-major per-stage solo times
  std::vector<double> proc_solo_;  // [K] per-processor sums, i-ascending
};

/// Tail-bubble optimization (§V-C phase 2): local search re-allocating
/// workloads, sweeping models tail-first and exhaustively trying the K
/// single-processor collapses for each (the search space is only K);
/// a candidate is kept only when `scorer` strictly improves.  Returns true
/// if the plan changed.  When the sweep runs (K >= 2, m >= 1) and
/// `score_out` is non-null, it receives the sweep's final plan score —
/// bit-equal to scoring the returned plan again; otherwise it is left
/// untouched.  A caller that already holds `scorer(plan)` passes it as
/// `known_score`, and the sweep starts from it instead of scoring the plan
/// again; NaN (the default) means unknown.  The static scorer ignores it.
///
/// Scoring is incremental: with the default (static) scorer each candidate
/// re-evaluates only its affected wavefront columns (IncrementalStaticScorer);
/// with a custom (DES) scorer, a model's K collapses are scored in one
/// ascending pass, each first checked against its CollapseBound: a collapse
/// whose bound reaches min(incumbent, best collapse scored so far) + 1e-6
/// cannot be accepted and is not scored.  Acceptance scans the collapses
/// in ascending order, so ties keep the lowest-index collapse.
///
/// Counters (obs registry): `planner.tail_candidates` (collapses that
/// differ from the current layout), `planner.tail_pruned` (of those, the
/// ones the lower bound skipped) and `planner.score_calls.tail` (custom
/// scorer calls), each added once per sweep.
bool optimize_tail(PipelinePlan& plan, const StaticEvaluator& eval,
                   const PlanScorer& scorer = {}, double* score_out = nullptr,
                   double known_score = std::numeric_limits<double>::quiet_NaN());

}  // namespace h2p
