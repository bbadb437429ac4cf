#pragma once

#include <cstddef>
#include <functional>
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
  /// Cap on boundary moves per model alignment (safety valve; the greedy
  /// converges in O(n K) moves).
  std::size_t max_moves_per_model = 1024;
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
/// the total number of layer moves.  The trailing unnamed parameter exists
/// only so the frozen perfbench sources, which still pass `nullptr`,
/// compile; it goes with the next benchmark change.
int vertical_align(PipelinePlan& plan, const StaticEvaluator& eval,
                   const WorkStealingOptions& opts = {},
                   const PlanScorer& scorer = {}, std::nullptr_t = nullptr);

/// Tail-bubble optimization (§V-C phase 2): local search re-allocating
/// workloads, sweeping models tail-first and exhaustively trying the K
/// single-processor collapses for each (the search space is only K);
/// a candidate is kept only when `scorer` strictly improves.  Returns true
/// if the plan changed.
///
/// Scoring is incremental: with the default (static) scorer each candidate
/// re-evaluates only its affected wavefront columns; with a custom (DES)
/// scorer, candidates are first pruned by a per-processor solo-work lower
/// bound that can never exclude an acceptable candidate, and the survivors
/// are scored in place, one after another.  Acceptance scans the collapses
/// in ascending order, so ties keep the lowest-index collapse.
bool optimize_tail(PipelinePlan& plan, const StaticEvaluator& eval,
                   const PlanScorer& scorer = {});

}  // namespace h2p
