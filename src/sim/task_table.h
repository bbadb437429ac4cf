#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/plan.h"
#include "exec/compiled_plan.h"
#include "util/arena.h"

namespace h2p {

struct SimTask;
class StaticEvaluator;

namespace sim {

/// Structure-of-arrays task set, the DES's only input: contiguous columns
/// plus CSR-packed explicit dependency edges, built **once per candidate
/// set** (the tail sweep, warm-start auditions and graph arbitration call
/// the DES thousands of times per planning window) with every derived
/// structure precomputed.  Every row's costs come from exec::lower_range:
/// compiled plans enter through append_compiled, pipeline plans through the
/// scorer's memoized build_from_plan.  The derived structures:
///
///  - `dispatch_order`/`dispatch_rank`: every task in (model, seq, index)
///    order, the order a free processor picks its ready tasks in;
///  - `succ_offsets`/`succ_edges`: the forward adjacency a retirement
///    releases its dependents through;
///  - `arrival_order`: strictly-future arrivals in ascending order.
///
/// The builders reuse the columns' capacity, so a thread-local
/// table re-lowered every candidate allocates nothing after warm-up.
/// Columns are immutable during simulation — migration under faults mutates
/// the *scratch* copies, never the table — so one table can back many
/// concurrent simulations.
class TaskTable {
 public:
  // ---- columns, size() entries each -----------------------------------------
  std::vector<std::uint32_t> model_idx;
  std::vector<std::uint32_t> seq_in_model;
  std::vector<std::uint32_t> proc_idx;
  std::vector<double> solo_ms;
  std::vector<double> sensitivity;
  std::vector<double> intensity;
  std::vector<double> arrival_ms;

  // ---- CSR dependency edges: a task is ready once all of them retired ------
  std::vector<std::uint32_t> dep_offsets;  // size()+1; deps of task i are
  std::vector<std::uint32_t> dep_edges;    //   dep_edges[dep_offsets[i] .. i+1)

  // ---- flattened fallback costs; empty unless a fallback table is attached --
  std::size_t alt_procs = 0;               // stride; 0 = no fallback table
  std::vector<double> alt_solo_ms;         // [task * alt_procs + q]
  std::vector<double> alt_sensitivity;
  std::vector<double> alt_intensity;

  // ---- derived, computed by finish() ---------------------------------------
  std::size_t num_models = 0;              // max model_idx + 1
  std::size_t num_procs = 0;               // max(min_procs, max proc_idx + 1)
  std::size_t max_proc_idx = 0;            // max proc_idx over tasks (0 if none)
  std::vector<std::uint32_t> dispatch_order;  // tasks by (model, seq, idx)
  std::vector<std::uint32_t> dispatch_rank;   // inverse: position per task
  std::vector<std::uint32_t> arrival_order;// tasks with arrival_ms > 0, sorted
  // Forward adjacency (CSR): the dependents of task i, one entry per
  // dependency edge.  The DES decrements each one's unmet count through it.
  std::vector<std::uint32_t> succ_offsets; // size()+1
  std::vector<std::uint32_t> succ_edges;

  [[nodiscard]] std::span<const std::uint32_t> succs_of(std::size_t i) const {
    return {succ_edges.data() + succ_offsets[i],
            succ_edges.data() + succ_offsets[i + 1]};
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Transpose an AoS SimTask list (see SimTask for who still uses that
  /// format).  A task without explicit deps gets one edge to the first task
  /// of its model's previous distinct-seq group, in (model, seq, index)
  /// order.  `min_procs` is a floor for `num_procs`.
  void build_from_tasks(std::span<const SimTask> tasks, std::size_t min_procs);

  /// THE lowering into the DES: append a compiled plan's slices to a table
  /// emptied by clear(), slots and deps offset past earlier appends (a
  /// stream appends window by window).  `proc_map[k]` is stage k's
  /// processor (empty = identity); slot s's root slices are released at
  /// `root_arrival_ms[s]` (empty = 0).  The first fallback table fixes the
  /// alt stride at `num_procs` (0 = its own width); unmapped processors and
  /// rows without a fallback get +inf solo.  Derived structures are stale
  /// until finish().
  void append_compiled(const exec::CompiledPlan& compiled,
                       std::span<const double> root_arrival_ms = {},
                       std::span<const std::size_t> proc_map = {},
                       std::size_t num_procs = 0);

  /// Validate the edges and derive the structures above, once after the
  /// last append; every builder ends here.
  void finish(std::size_t min_procs);

  /// clear() + append_compiled(compiled) + finish(min_procs).
  void build_from_compiled(const exec::CompiledPlan& compiled,
                           std::size_t min_procs);

  /// Lower a pipeline plan into columns — build_from_compiled(
  /// exec::compile(plan, eval)) for the DES-scoring hot path, without the
  /// CompiledPlan assembly (names, footprints) a score-only evaluation never
  /// reads.  Rows come from exec::lower_range, which also validates them.
  ///
  /// Delta lowering: each slot's lowered rows are memoized under (evaluator
  /// generation, model index, slices), and only slots whose key changed
  /// since the previous plan lowering are lowered again — a tail
  /// candidate re-lowers one model.  The memo survives the other builders
  /// (its rows are a pure function of the key), and `clear()` keeps it.
  void build_from_plan(const PipelinePlan& plan, const StaticEvaluator& eval);

  void clear();

 private:
  /// build_from_plan's per-slot memo.  `generation` 0 marks it invalid: a
  /// slot is invalidated before it is lowered and re-keyed only once its
  /// rows are rebuilt, so a slot that throws never stays marked valid.
  struct SlotMemo {
    std::uint64_t generation = 0;
    std::size_t model_index = 0;
    std::vector<Slice> slices;
    std::vector<exec::ScheduledSlice> rows;
  };
  std::vector<SlotMemo> slot_memo_;
  // Slots appended since clear(): append_compiled's slot offset.
  std::size_t num_slots_ = 0;

  std::size_t n_ = 0;  // task count
  // True iff the current derived structures came from a build_from_plan
  // finish; lets the next plan lowering skip finish() when its verified
  // structural columns are unchanged (see build_from_plan).
  bool plan_structure_ = false;
  std::size_t finalized_min_procs_ = 0;
};

/// Every mutable buffer one DES evaluation needs, carved from a reusable
/// monotonic arena: scratch prepared for run N+1 reuses run N's block, so
/// planning threads (tail sweeps, warm-start auditions, graph arbitration)
/// keep one thread-local SimScratch and run allocation-free after warm-up.  Reuse is bit-deterministic: prepare() fully re-initializes
/// every span, so a reused scratch yields timelines identical to a fresh one
/// (asserted in pipeline_sim_test).
class SimScratch {
 public:
  /// Carve and initialize all per-run state for `table` on `P` processors
  /// (P >= table.num_procs).  With `alias_columns` set (the no-fault scoring
  /// path) the per-task columns alias the table directly instead of being
  /// copied: only permanent-drop-out migration ever writes them, and
  /// migration requires a fault script — callers running with faults MUST
  /// pass false to get private copies.
  void prepare(const TaskTable& table, std::size_t P,
               bool alias_columns = false);

  // Effective per-task state: a copy of the table columns (or a read-only
  // alias of them under `alias_columns`), mutated only by permanent
  // drop-out migration.
  std::span<std::uint32_t> proc;
  std::span<double> solo;
  std::span<double> sens;
  std::span<double> intens;
  std::span<std::uint8_t> done;
  std::span<std::uint8_t> started;

  // Event-driven readiness (filled by simulate()).  `unmet[i]` counts task
  // i's predecessors not yet retired, plus one while a
  // strictly-positive arrival is in the future; at zero the task is ready.
  // Ready tasks wait in one binary min-heap per processor, keyed by their
  // TaskTable::dispatch_rank: heap p occupies ready_heap[heap_base[p] ..
  // heap_base[p] + heap_size[p]), and its region holds every unfinished
  // task of p, so pushes never overflow.  A permanent drop-out re-carves
  // the regions after migration.
  std::span<std::uint32_t> unmet;
  std::span<std::uint32_t> ready_heap;
  std::span<std::uint32_t> heap_base;    // P + 1
  std::span<std::uint32_t> heap_size;

  // The running set, SoA with capacity padded_procs so the per-event rate /
  // min-dt / advance kernels (util/simd.h) sweep whole lanes: entries
  // [running_size, padded_procs) of run_remaining and rates are kept at an
  // exact 0.0, which the masked kernels blend out.
  std::span<std::uint32_t> run_task;     // task index per running slot
  std::span<double> run_remaining;       // remaining solo work, ms
  std::span<double> run_start;           // start timestamp, ms
  std::span<double> run_solo;            // solo_ms at start (for the record)
  std::size_t running_size = 0;
  // Task index running on each processor, -1 when idle.  Indexed by task —
  // not running slot — so retirement compaction never invalidates it.
  std::span<std::int32_t> proc_running;
  std::span<double> rates;               // per running slot, padded
  std::span<std::uint8_t> proc_dead;
  std::span<std::uint32_t> pending;      // migration staging, capacity n

  // Dense Eq. 2 operands: `coupling` holds P rows of padded_procs doubles
  // (diagonal 0, zero tails; filled from the Soc when the cache below
  // misses), and `proc_intensity` is the per-event aggressor intensity by
  // processor.
  std::span<double> coupling;
  std::span<double> proc_intensity;
  // Column-major mirror of `coupling` (padded_procs x padded_procs; column
  // q starts at q * padded_procs) for simd::fixed_matvec_cols, which prices
  // every victim processor per event in one vertical sweep.  `extra_by_proc`
  // receives that sweep's output.  Both refill with `coupling`.
  std::span<double> coupling_t;
  std::span<double> extra_by_proc;
  std::size_t padded_procs = 0;

  // Coupling-row cache tag.  gamma(p, q) depends only on the two
  // processors' kinds, so simulate() skips the refill when the kind
  // signature matches AND the span still points at the same carve (prepare
  // re-carves deterministically: same n and P -> same addresses with
  // contents intact; a different table shape or an arena regrow moves the
  // span and invalidates the tag).  Keyed on kinds, not the Soc's address —
  // distinct Socs can reuse a stack address, but equal-kind Socs have equal
  // coupling rows by construction.  0 is never a valid signature.
  std::uint64_t coupling_sig = 0;
  const double* coupling_ptr = nullptr;

  [[nodiscard]] std::size_t bytes_reserved() const {
    return arena_.bytes_reserved();
  }

 private:
  util::MonotonicArena arena_;
  // Carve cache: when prepare() sees the same (n, P) geometry it skips the
  // arena reset/reserve and the span carving entirely — the spans from the
  // previous call are still valid (the carve is deterministic).  The
  // private-mode column copies are carved lazily on the first non-aliasing
  // prepare at a geometry (the reserve budget always includes them).
  // SIZE_MAX forces a carve on first use.
  std::size_t prepared_n_ = static_cast<std::size_t>(-1);
  std::size_t prepared_P_ = static_cast<std::size_t>(-1);
  bool prepared_private_ = false;
  // The private-mode carves, kept here so an aliasing prepare (which points
  // the public spans at the table) doesn't lose them for the next
  // copy-mode prepare at the same geometry.
  std::span<double> priv_solo_, priv_sens_, priv_intens_;
  std::span<std::uint32_t> priv_proc_;
};

}  // namespace sim
}  // namespace h2p
