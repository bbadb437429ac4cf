#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/bubbles.h"
#include "core/mitigation.h"
#include "core/plan.h"
#include "core/work_stealing.h"

namespace h2p {

namespace exec {
struct CompiledPlan;
}  // namespace exec

/// Knobs for the two-step planner.  Disabling `contention_mitigation` and
/// `tail_optimization` together yields the paper's "No C/T" ablation.
struct PlannerOptions {
  bool contention_mitigation = true;
  bool work_stealing = true;
  bool tail_optimization = true;
  /// H/L split percentile for the contention classifier (§V-B).
  double classifier_percentile = 0.7;
  /// Pipeline depth; 0 uses every processor of the Soc.
  std::size_t num_stages = 0;

  static PlannerOptions no_ct() {
    PlannerOptions o;
    o.contention_mitigation = false;
    o.tail_optimization = false;
    return o;
  }

  bool operator==(const PlannerOptions&) const = default;
};

/// Planner output plus the intermediate artifacts the benches report.
struct PlannerReport {
  PipelinePlan plan;
  MitigationResult mitigation;
  double static_makespan_ms = 0.0;
  double static_bubble_ms = 0.0;
  int layers_stolen = 0;
  /// Constraint (6): false when some wavefront column's resident weights +
  /// activations exceed the device's free memory — the caller should shrink
  /// the request window (or shed large models) before executing.
  bool memory_ok = true;
};

/// Hetero2Pipe: the paper's two-step pipeline planner.
///
///  1. Horizontal (P1): slice every model independently with the
///     Algorithm-1 dynamic program over the Soc's processor chain.
///  2. Vertical (P2): classify contention intensity, re-order the request
///     sequence via linear assignment (Algorithm 2), then align stage
///     times across the pipeline by work stealing (Algorithm 3) and
///     squeeze the drain tail.
/// One plan runs on one thread: every step is a plain loop on the caller.
class Hetero2PipePlanner {
 public:
  Hetero2PipePlanner(const StaticEvaluator& eval, PlannerOptions opts = {})
      : eval_(&eval), opts_(opts) {}

  [[nodiscard]] PlannerReport plan() const;

  /// Warm-start replanning from a near-miss cached plan (same SoC + knobs,
  /// model multiset within one add/remove/substitute of this evaluator's —
  /// the entries `exec::PlanCache::find_near` serves).  The seed's
  /// per-model boundaries and mitigated order are inherited; only the one
  /// model the window adds (if any) is DP-sliced, placed into the removed
  /// model's slot (Def.-4 permitting) and its slicing auditioned against
  /// the K single-processor collapses by the incremental static scorer.
  /// The plan is then settled: two DES evaluations arbitrate a static
  /// re-alignment, and one DES-scored tail sweep follows — against the cold
  /// path's two full DES-aligned branches, which is what makes a warm
  /// replan several times cheaper.  Returns nullopt when the seed is
  /// unusable (stage-count mismatch, more than one model of delta, non-grid
  /// seed); callers then fall back to `plan()`.
  ///
  /// A warm-started plan is NOT guaranteed bit-identical to the cold plan
  /// for the same window — it is a different (cheaper) search path.  Tests
  /// validate score-equivalence on one-model-delta windows, and the online
  /// loop only takes this path behind `OnlineOptions::warm_start`.
  [[nodiscard]] std::optional<PlannerReport> plan_warm(
      const exec::CompiledPlan& seed) const;

  /// Degraded warm start: replan the SAME window after processors dropped
  /// out, seeding from the plan compiled for the healthy SoC.  This
  /// planner's evaluator must be built for the degraded SoC view (one stage
  /// per surviving processor); `kept_procs[k]` names the healthy-plan stage
  /// that degraded stage k corresponds to (strictly increasing; the
  /// identity map re-settles a plan whose cost tables moved, e.g. under a
  /// degraded bus).  A dropped stage's layer range merges into the adjacent
  /// surviving stage (previous if one exists, else next); the result is
  /// settled exactly as plan_warm settles.  Returns nullopt when the seed
  /// is unusable (stage/processor-map mismatch, different model multiset,
  /// non-grid seed); callers then fall back to a cold plan.
  [[nodiscard]] std::optional<PlannerReport> plan_degraded(
      const exec::CompiledPlan& seed,
      const std::vector<std::size_t>& kept_procs) const;

  [[nodiscard]] const PlannerOptions& options() const { return opts_; }

 private:
  /// H/L labels (§V-B) by model index, thresholded on this window.
  [[nodiscard]] std::vector<bool> classify() const;
  /// DES makespan with constraint (6)'s ×1.5 penalty on memory overflow:
  /// what every DES-in-the-loop search here minimizes.
  [[nodiscard]] PlanScorer des_scorer() const;
  [[nodiscard]] PlannerReport report_for(PipelinePlan plan,
                                         MitigationResult mitigation,
                                         int layers_stolen) const;
  /// The seeded replans' shared tail: stamp the labels `high` (by model
  /// index) on `plan`'s rows, settle it and report it.
  [[nodiscard]] PlannerReport settle(PipelinePlan plan,
                                     std::vector<bool> high) const;

  const StaticEvaluator* eval_;
  PlannerOptions opts_;
};

}  // namespace h2p
