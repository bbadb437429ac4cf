#pragma once

#include <cstddef>
#include <vector>

#include "core/bubbles.h"
#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "models/graph.h"

namespace h2p {

/// Graph-native planner output: the fork/join compiled plan plus the chain
/// artifacts it was arbitrated against.
struct GraphPlannerReport {
  /// The accepted plan.  When the DAG candidate lost (or every input was a
  /// chain) this is exactly the legacy pipeline lowering — byte-identical
  /// to `exec::compile(chain_report.plan, evaluator())`.
  exec::CompiledPlan compiled;

  /// The legacy two-step planner's report on the linearized models (always
  /// produced; the DAG path starts from it).
  PlannerReport chain_report;

  /// True when the fork/join candidate beat (or tied) the chain plan under
  /// the DES and `compiled` carries real fork/join edges.
  bool dag_accepted = false;

  /// Slots that were re-sliced at articulation points in the accepted plan
  /// (empty when `dag_accepted` is false).
  std::vector<std::size_t> dag_slots;

  /// Branch subgraphs running on a processor other than their segment's
  /// home stage in the accepted plan.
  std::size_t offloaded_branches = 0;

  double chain_des_ms = 0.0;  // DES makespan of the chain lowering
  double final_des_ms = 0.0;  // DES makespan of `compiled`
};

/// DAG-aware front end to the Hetero2Pipe planner: takes `GraphModel`s as
/// the first-class input, plans their linearizations with the legacy
/// two-step planner, then — for every genuinely branchy model — builds a
/// fork/join candidate: the slot is re-sliced with Algorithm 1 restricted
/// to articulation-point boundaries (`partition_minmax_restricted`), and
/// within each slice the segment branches are offloaded to their
/// best-affinity processors when the static fork/join wavefront score says
/// the parallel layout beats serializing them on the home stage.  The
/// candidate is arbitrated against the chain plan with one whole-window
/// discrete-event evaluation and accepted only when not worse, so:
///
///  * a window of pure chains plans BYTE-IDENTICALLY to the legacy
///    `Model` path (the candidate stage never runs), and
///  * a branchy model can hold ≥ 2 of its own slices on different
///    processors at the same simulated time — the intra-model parallelism
///    a linearization cannot express.
class GraphPlanner {
 public:
  GraphPlanner(const Soc& soc, std::vector<const GraphModel*> graphs,
               PlannerOptions opts = {});

  [[nodiscard]] GraphPlannerReport plan() const;

  /// The evaluator over the linearized models (slice cost tables; shared
  /// with the chain planner).  Layer index i of slot s's table is the node
  /// at topological position i of graph s.
  [[nodiscard]] const StaticEvaluator& evaluator() const { return eval_; }

 private:
  std::vector<const GraphModel*> graphs_;
  std::vector<Model> linearized_;        // owned chain views, topological order
  std::vector<const Model*> model_ptrs_; // into linearized_
  PlannerOptions opts_;
  StaticEvaluator eval_;
  Hetero2PipePlanner chain_planner_;
};

}  // namespace h2p
