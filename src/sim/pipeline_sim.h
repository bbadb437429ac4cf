#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "contention/contention_model.h"
#include "core/bubbles.h"
#include "core/plan.h"
#include "exec/compiled_plan.h"
#include "sim/fault_injector.h"
#include "sim/task_table.h"
#include "sim/trace.h"
#include "soc/soc.h"

namespace h2p {

/// One schedulable unit in AoS form, the input of the reference oracle,
/// hand-built test and Table 2 task sets and the benchmark's modeled pass
/// (library code simulates a CompiledPlan).  At most one task runs per
/// processor at a time.
struct SimTask {
  std::size_t model_idx = 0;
  std::size_t seq_in_model = 0;
  std::size_t proc_idx = 0;
  double solo_ms = 0.0;       // uncontended duration (exec + boundary copy)
  double sensitivity = 0.0;   // memory-bound share (victim side)
  double intensity = 0.0;     // contention intensity (aggressor side)
  double arrival_ms = 0.0;    // earliest start (release time)

  /// When set, `deps` lists the indices (into simulate()'s task vector)
  /// that must ALL retire before this task may start; empty deps = a root.
  /// When unset (hand-built task sets), the task waits on the first task of
  /// its model's previous distinct-seq group among the unset tasks, in
  /// (model, seq, index) order; TaskTable::build_from_tasks writes that as
  /// an explicit edge.
  bool explicit_deps = false;
  std::vector<std::size_t> deps;

  /// Cost of this task were it to run on processor q instead (the HiAI-style
  /// emergency fallback when `proc_idx` drops out permanently mid-run).  A
  /// non-finite solo_ms marks q as not a legal target.  Empty = the task
  /// cannot migrate; it is only consulted under SimOptions::faults.
  struct AltCost {
    double solo_ms = 0.0;
    double sensitivity = 0.0;
    double intensity = 0.0;
  };
  std::vector<AltCost> alt;
};

/// The co-execution slowdown always applies; a task set with zero
/// intensity everywhere runs on an ideal shared bus (Eq. 2's extra term is
/// then an exact 0).
struct SimOptions {
  /// Optional fault environment.  When set, the simulator enforces it as
  /// ground truth: a processor inside a drop-out window starts no task (a
  /// task already running is frozen and resumes at recovery), a slowed
  /// processor's tasks progress at the script's factor, and when a drop-out
  /// turns out to be permanent every pending task assigned to that
  /// processor migrates to its cheapest surviving fallback (per
  /// SimTask::alt; a running task loses its progress).  Null = the healthy
  /// simulator, bit-identical to before.
  const FaultScript* faults = nullptr;
};

/// Rate-based discrete-event simulator — SoA core.
///
/// A running task progresses at rate 1/slowdown, where the slowdown is the
/// ContentionModel factor given the set of tasks currently running on other
/// processors; rates are recomputed at every start/finish event, so
/// partially overlapping windows are integrated exactly.  This is the
/// asynchronous ground truth the planner's static wavefront objective is
/// validated against.
///
/// Dispatch: a free processor picks, among its ready tasks (every
/// dependency edge retired and arrival passed), the lowest (model_idx,
/// seq_in_model) — i.e., pipeline FIFO order.  Readiness is event-driven:
/// each task counts its unmet edges and arrival, a retirement or a passed
/// arrival releases it, and a released task waits in its processor's ready
/// min-heap.  Tasks blocked on a later window's arrival are never scanned:
/// dispatch over a whole stream costs O(n log n + events * P).  The
/// `des.dispatch_probes` counter sums the ready-heap entries each call
/// pushes, pops and rescans.
///
/// The table is read-only (migration mutates scratch copies), so one table
/// can be evaluated many times — or concurrently from several threads, each
/// with its own scratch.  `out` is overwritten, reusing its capacity; with a
/// warmed-up scratch the call performs no heap allocation.  Timelines are
/// bit-identical to the legacy AoS simulator's (asserted in tests against
/// the frozen reference in sim/pipeline_sim_reference.h).
void simulate(const Soc& soc, const sim::TaskTable& table,
              sim::SimScratch& scratch, Timeline& out,
              const SimOptions& options = {});

/// A caller-built table (e.g. a stream of appended windows) through the
/// thread-local scratch, which stays carved for the next call.
Timeline simulate(const Soc& soc, const sim::TaskTable& table,
                  const SimOptions& options = {});

/// One compiled plan, all arrivals at 0, through a thread-local
/// TaskTable/SimScratch: the entry library, tool and figure callers use.
Timeline simulate(const Soc& soc, const exec::CompiledPlan& compiled,
                  const SimOptions& options = {});

/// AoS entry (see SimTask) through a thread-local build_from_tasks table.
Timeline simulate(const Soc& soc, std::span<const SimTask> tasks,
                  const SimOptions& options = {});

/// DES makespan of a pipeline plan, lowered straight into a thread-local
/// TaskTable (no exec::compile, no AoS task vector) and simulated with a
/// thread-local scratch + timeline — the allocation-free scoring entry the
/// planner's tail sweeps, warm-start auditions and alignment arbitration
/// use.  Value is bit-identical to simulate_plan(...).makespan_ms().
double simulate_plan_makespan(const PipelinePlan& plan,
                              const StaticEvaluator& eval,
                              const SimOptions& options = {});

/// Map a compiled plan's slices 1:1 onto SimTasks (arrivals zeroed): the
/// AoS twin of TaskTable::append_compiled, for SimTask's users only.
std::vector<SimTask> tasks_from_compiled(const exec::CompiledPlan& compiled);

/// Convenience: plan -> exec::compile -> DES timeline.
Timeline simulate_plan(const PipelinePlan& plan, const StaticEvaluator& eval,
                       const SimOptions& options = {});

}  // namespace h2p
