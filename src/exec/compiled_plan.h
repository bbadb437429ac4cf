#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/bubbles.h"
#include "core/plan.h"

namespace h2p::exec {

/// One lowered schedulable unit: a contiguous layer range of one request
/// bound to a processor, with every per-slice quantity any consumer needs
/// precomputed.  Slices of the same slot form a chain ordered by
/// `seq_in_model`.
struct ScheduledSlice {
  std::size_t model_idx = 0;      // slot in the executed sequence
  std::size_t seq_in_model = 0;   // position in the slot's chain
  std::size_t proc_idx = 0;       // processor executing the range
  Slice layers;                   // [begin, end) in the model's layer chain

  /// Explicit precedence: global indices into `CompiledPlan::slices` that
  /// must retire before this slice may start.  Chain lowering emits the
  /// trivial previous-slice edge per slot; DAG plans carry real fork/join
  /// edges (a join slice lists every branch tail).  Roots have no deps.
  std::vector<std::size_t> deps;

  double exec_ms = 0.0;           // uncontended execution (Eq. 2 term 1)
  double boundary_copy_ms = 0.0;  // inbound boundary tensor copy (Eq. 2 term 2)
  double sensitivity = 0.0;       // victim-side memory-bound share
  double intensity = 0.0;         // aggressor-side contention intensity
  double dram_bytes = 0.0;        // bytes moved over the shared bus

  /// Total uncontended duration — what the planner's Eq. 2 charges before
  /// the co-execution term.
  [[nodiscard]] double solo_ms() const { return exec_ms + boundary_copy_ms; }

  friend bool operator==(const ScheduledSlice&, const ScheduledSlice&) = default;
};

/// The compiled execution IR: one `PipelinePlan` lowered once, consumed by
/// every backend (DES simulator, queueing, memory and energy accounting,
/// chrome tracing, the online serving path).  Analogous
/// to a HETERO-style compiled model: device-affine subgraphs in a single
/// flat executable form.
struct CompiledPlan {
  std::size_t num_stages = 0;
  std::size_t num_models = 0;                // pipeline slots
  std::vector<ScheduledSlice> slices;        // slot-major, chain order inside

  // Per-slot metadata (indexed by ScheduledSlice::model_idx).
  std::vector<std::size_t> original_index;   // slot -> index in the request sequence
  std::vector<std::string> model_names;      // slot -> model name
  std::vector<double> resident_bytes;        // slot -> in-flight footprint (constraint 6)

  /// Optional fallback cost table (attach_fallback_costs): entry
  /// [slice * fallback_procs + q] is what slice `slice` would cost on
  /// processor q of the compiling evaluator's Soc.  The fault-aware online
  /// path hands these to the DES so work stranded by a permanent processor
  /// drop-out can migrate (TaskTable's alt columns).  Empty unless
  /// requested; a non-finite solo_ms marks a processor it cannot run on.
  struct FallbackCost {
    double solo_ms = 0.0;
    double sensitivity = 0.0;
    double intensity = 0.0;
  };
  std::vector<FallbackCost> fallback;
  std::size_t fallback_procs = 0;

  /// Slice at (slot, seq) or nullptr — the lookup timeline consumers use to
  /// re-associate a TaskRecord with its lowered slice.
  [[nodiscard]] const ScheduledSlice* find(std::size_t model_idx,
                                           std::size_t seq_in_model) const;

  /// Sum of solo times over all slices (work lower bound).
  [[nodiscard]] double total_solo_ms() const;

  /// True when every slot is a simple chain: slice j of a slot carries seq
  /// j and depends exactly on slice j-1 (roots on nothing).  Warm-start
  /// replanning only reuses plans for which the pipeline-grid round-trip
  /// (`to_pipeline_plan`) is faithful — DAG plans with fork/join edges are
  /// not, even when each (slot, processor) cell is unique.
  [[nodiscard]] bool chain_precedence() const;
};

/// THE lowering: expand a pipeline plan (stage k of slot i -> processor k;
/// empty slices skipped) into the flat IR using the evaluator's cost
/// tables.  Every consumer goes through this function — solo latency,
/// boundary-copy, sensitivity, intensity and footprint are derived here and
/// nowhere else.
[[nodiscard]] CompiledPlan compile(const PipelinePlan& plan,
                                   const StaticEvaluator& eval);

/// Fill `plan.fallback` with every slice's cost on every processor of
/// `eval`'s Soc (the same cost derivation as `lower_range`).  Idempotent;
/// O(slices × procs) table lookups, paid once per compiled plan and cached
/// with it in the plan cache.
void attach_fallback_costs(CompiledPlan& plan, const StaticEvaluator& eval);

/// Inverse of `compile` for pipeline-grid plans (stage k == processor k,
/// i.e. anything the two-step planner produced): recover each slot's K-way
/// slicing, with `ModelPlan::model_index` taken from `original_index`.
/// Stages the slot skips come back as empty slices in the canonical form
/// `boundaries_to_slices` emits.  Warm-start replanning uses this to seed
/// Algorithm 1 from a cached plan's boundaries.  Throws
/// std::invalid_argument if the plan is not a pipeline grid (a baseline
/// schedule with two ranges of one slot on one processor).
[[nodiscard]] PipelinePlan to_pipeline_plan(const CompiledPlan& compiled);

/// Lower one explicit layer range onto one processor — the escape hatch for
/// baseline schedulers whose schedules are not stage-k -> processor-k
/// pipelines (Band's greedy dispatch, Pipe-it's two-stage split, ...).
/// The inbound boundary copy is charged iff `begin > 0`, matching Eq. 2.
[[nodiscard]] ScheduledSlice lower_range(const StaticEvaluator& eval,
                                         std::size_t table_idx,
                                         std::size_t slot, std::size_t seq,
                                         std::size_t proc_idx,
                                         std::size_t begin, std::size_t end);

/// Assembles a CompiledPlan for explicit (non-pipeline-grid) schedules.
/// Baselines declare *what runs where*; all cost derivation still happens
/// in lower_range.  Slots must be added in order; each slot's ranges form a
/// chain in the order they are added (a range waits on the slot's previous
/// one).  build() fills per-slot footprints from the registered ranges.
/// Schedulers with genuine fork/join structure assemble CompiledPlan
/// directly instead.
class CompiledPlanBuilder {
 public:
  explicit CompiledPlanBuilder(const StaticEvaluator& eval);

  /// Register the next slot, backed by eval.model(original_index).
  std::size_t add_slot(std::size_t original_index);

  /// Lower layers [begin, end) of the slot's model onto proc_idx as the
  /// slot's next chain element.
  ScheduledSlice& add_range(std::size_t slot, std::size_t proc_idx,
                            std::size_t begin, std::size_t end);

  [[nodiscard]] CompiledPlan build();

 private:
  const StaticEvaluator* eval_;
  CompiledPlan plan_;
  /// Per-slot occupied layer range per processor, for footprint accounting.
  std::vector<std::vector<Slice>> slot_proc_ranges_;
  /// Per-slot index into plan_.slices of the slot's last range, or
  /// SIZE_MAX while the slot has none.
  std::vector<std::size_t> slot_last_;
};

}  // namespace h2p::exec
