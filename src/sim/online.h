#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/planner.h"
#include "models/model.h"
#include "obs/drift.h"
#include "sim/fault_injector.h"
#include "sim/trace.h"
#include "soc/soc.h"

namespace h2p {

class ThreadPool;

/// One request of an online inference stream.
struct OnlineRequest {
  const Model* model = nullptr;
  double arrival_ms = 0.0;
  /// Absolute completion deadline (SLO); +inf = best-effort.  What happens
  /// to a request that provably cannot meet it is governed by
  /// OnlineOptions::deadline_policy.
  double deadline_ms = std::numeric_limits<double>::infinity();
};

/// What the admission controller does with a request whose deadline
/// provably cannot be met (the proof is a DES lower bound: a request's
/// chain must run serially, contention and faults only dilate it, so its
/// completion is at least max(arrival, plan start) plus the sum over its
/// layers of each layer's best surviving-processor solo time — the same
/// solo-work argument the tail sweep's CollapseBound uses).
enum class DeadlinePolicy {
  /// Admit everything; misses are only counted after the fact.
  kNone,
  /// Drop provably-late requests at window admission (never executed).
  kShed,
  /// Push a provably-late request into the next window when the miss is due
  /// to degraded capacity (it would fit on the healthy SoC — i.e. waiting
  /// for a recovery can save it); shed when it is hopeless even healthy or
  /// after `max_defers` attempts.
  kDefer,
};

/// Closed thermal feedback loop (soc/thermal.h): the serving loop advances
/// one first-order RC ThermalModel per processor from the utilization of
/// each window's executed plan, derives the coarse thermal bucket with
/// hysteresis, and plans the next window against the bucket's derated SoC.
struct ThermalLoopOptions {
  double ambient_c = 25.0;
  /// Hysteresis margin (in derate units) handed to
  /// thermal_bucket_with_hysteresis: a bucket boundary must be cleared by
  /// this much before the bucket — and with it every PlanCache key — moves.
  double hysteresis = 0.03;
  /// Accelerated aging: modeled stream milliseconds are scaled by this
  /// before driving the RC models, whose time constants are tens of
  /// seconds.  1.0 = real time; tests and the CLI use large values so a
  /// millisecond-scale stream actually heats the die.
  double time_scale = 1.0;
  /// Upper clamp on the derived bucket (each bucket derates another 10%).
  std::size_t max_bucket = 4;
};

/// Reaction policy to processor faults observed by the serving loop.
struct FaultToleranceOptions {
  /// First wait when a processor probes unavailable at planning time.
  double initial_backoff_ms = 2.0;
  /// The wait doubles with each probe, capped here.
  double max_backoff_ms = 16.0;
  /// Backoff probes before the processor is declared dead and planning
  /// proceeds without it.  A dead processor is still cheaply re-probed at
  /// every later window and rejoins the moment it reports available.
  std::size_t max_retries = 3;
};

struct OnlineOptions {
  /// How many requests the scheduler accumulates before planning a pipeline
  /// window.  The paper (§V-C complexity discussion) notes the planner
  /// "should be scheduled more frequently" as the request rate grows, to
  /// keep |M| — and thus the O(|M|^3 |H|) mitigation term — bounded.
  /// Must be >= 1 (validated at run_online entry).
  std::size_t replan_window = 4;
  PlannerOptions planner;
  /// Charged once per *cold planner invocation* before the window's tasks
  /// release, modelling the planner's own latency on-device.  Windows
  /// served from the plan cache skip this entirely.
  double planning_overhead_ms = 1.0;

  /// Reuse compiled plans for repeated request windows (same model multiset
  /// on the same Soc under the same planner knobs).  A hit skips both the
  /// cost-table build and the O(|M|^3 |H|) planner.  The cache lives for
  /// one run_online call, at exec::PlanCache's default capacity.
  bool use_plan_cache = true;
  /// Overhead charged on a cache hit (the lookup itself; ~free on-device).
  double cache_hit_overhead_ms = 0.0;

  /// Worker pool for async prefetch (`async_planning`); each prefetch job
  /// plans one window on one worker.  Plans on the calling thread never
  /// use it, so without `async_planning` it is ignored.
  ThreadPool* pool = nullptr;

  /// Pipeline the serving loop itself: once window w is resolved on the
  /// calling thread, cold plans for the windows after it are speculatively
  /// computed on `pool` and consumed as futures.  Every cache decision
  /// (exact hit, near-miss warm start, insert, eviction) still happens on
  /// the calling thread in stream order, and cold plans are deterministic
  /// functions of (Soc view, window, knobs), so an async run produces a
  /// bit-identical Timeline, plans and stats to a serial run — only host
  /// wall-clock changes.  Only windows the believed environment (the mask
  /// and bus factor window w observed, the thermal bucket window w + 1
  /// plans in) would plan cold are prefetched: one the cache would serve
  /// exactly, warm-start from a near miss or replan degraded from its
  /// healthy plan gets no speculative job.  The calling thread never waits
  /// on, or runs, a prefetch job: a window consumes its prefetched plan
  /// only when the job has finished, and otherwise cancels it and plans
  /// inline (the same plan).  A prefetched plan whose predicted cache key
  /// no longer matches at consume time (a fault changed the availability
  /// mask, a deferral reshaped the window) is discarded.  At the end of the
  /// run every unconsumed job is cancelled and waited for.  Requires a
  /// non-null `pool` and `prefetch_depth` >= 1 (validated at entry).
  bool async_planning = false;
  /// How far the async loop predicts: the `prefetch_depth` windows after
  /// the one just served.  The first window is always planned inline.
  std::size_t prefetch_depth = 2;

  /// Cross-window warm-start replanning: when a window misses the cache
  /// exactly but a cached plan for a *near-miss* window exists (same Soc +
  /// knobs + availability/thermal environment, model multiset within one
  /// add/remove/substitute — exec::PlanCache::find_near), seed
  /// Hetero2PipePlanner::plan_warm from it instead of replanning cold.  The
  /// warm plan inherits the seed's boundaries and order and settles with a
  /// handful of DES evaluations instead of the cold path's DES-scored
  /// search loops, so it is several times cheaper; it is score-validated
  /// against cold in the tests but NOT bit-identical to a cold plan, hence
  /// opt-in.  Requires `use_plan_cache` (validated at entry).
  bool warm_start = false;
  /// Charged for a warm replan (between a cache hit and a cold replan).
  double warm_planning_overhead_ms = 0.25;

  /// Optional fault environment (also handed to the DES as ground truth).
  /// Each window plans against the availability mask the loop observes at
  /// planning time: transiently-down processors are retried with capped
  /// exponential backoff (`fault_tolerance`), then declared dead and
  /// planned around; the plan cache is keyed on the mask, and a window
  /// whose healthy plan is cached replans *degraded* from it
  /// (Hetero2PipePlanner::plan_degraded) instead of cold.  Faults that
  /// strike after planning are absorbed by the simulator: transient
  /// drop-outs freeze in-flight work until recovery, permanent ones migrate
  /// it via the compiled plan's fallback cost table.  Null = healthy,
  /// bit-identical to a run without this layer.
  const FaultScript* faults = nullptr;
  FaultToleranceOptions fault_tolerance;

  /// Deadline/SLO admission (see DeadlinePolicy).
  DeadlinePolicy deadline_policy = DeadlinePolicy::kNone;
  /// kDefer: how often one request may be pushed into a later window before
  /// it is shed.
  std::size_t max_defers = 4;

  /// Coarse thermal-state bucket (soc/thermal.h coarse_thermal_bucket) the
  /// device is serving in.  Every window plans against the bucket's derated
  /// SoC (thermally_derated_bucket) — cost tables, deadline admission lower
  /// bounds, warm/degraded replans and the plan-cache key all see the
  /// derated costs.  With `thermal_loop` on this is only the *initial*
  /// bucket; the loop then drives it from the live thermal models.
  std::size_t thermal_bucket = 0;

  /// Close the thermal loop: advance a live per-processor ThermalModel from
  /// each executed window's utilization and derive `thermal_bucket`
  /// automatically (with hysteresis, so PlanCache keys don't flap).
  bool thermal_loop = false;
  ThermalLoopOptions thermal;

  /// Test-only: invoked inside a speculative prefetch job, on the pool
  /// thread, before it plans — unless the job was cancelled before it
  /// started, so how often it runs depends on timing.  A throwing hook
  /// exercises the loop's exception hardening: the future's exception is
  /// swallowed at consume time and the window falls back to a serial cold
  /// replan.  The run waits for every job before it returns, so the hook
  /// may capture the caller's state by reference.
  std::function<void()> prefetch_job_hook;

  /// Prediction capture: record, per executed slice, the start/finish
  /// the window's own arbitrating DES promised (window-isolated, fault-free
  /// — exactly what the planner chose the plan on) next to what the merged
  /// streaming timeline delivered, in `OnlineResult::slice_records`, and
  /// each window's promised makespan in
  /// `WindowStats::predicted_makespan_ms`.  Strictly observational: a run
  /// with capture on is bit-identical to one with it off.
  bool drift_tracking = false;
};

/// How one window's plan was obtained.
enum class WindowSource { kColdReplan, kWarmReplan, kCacheHit, kDegradedReplan };

/// Per-window accounting of the serving loop.
struct WindowStats {
  WindowSource source = WindowSource::kColdReplan;
  /// When the window's last request arrived (the planner cannot start
  /// earlier: the window's multiset is unknown until then).
  double arrival_ms = 0.0;
  /// When the window's tasks released: planning finished, chained behind
  /// the previous window's planner (one planner, run per window in order).
  double release_ms = 0.0;
  /// Modeled planner latency charged for this window (cold / warm / hit).
  double planning_ms = 0.0;
  /// Split of the release latency (release - arrival = hidden + charged):
  /// `charged_ms` is the part that actually delayed this window's first
  /// tasks on their processors; `hidden_ms` ran behind the previous
  /// window's still-executing tasks and cost nothing.
  double hidden_ms = 0.0;
  double charged_ms = 0.0;
  /// Availability mask the window planned against (bit p = processor p).
  std::uint64_t avail_mask = ~0ull;
  /// Fault-induced stall before planning could start: backoff retries on
  /// transiently-down processors, plus any all-down wait.
  double backoff_wait_ms = 0.0;
  /// Admission outcomes decided when this window formed.
  std::size_t shed = 0;
  std::size_t deferred = 0;
  /// Admitted requests of this window that still finished past deadline.
  std::size_t deadline_misses = 0;
  /// Thermal bucket the window planned under (static or loop-derived).
  std::size_t thermal_bucket = 0;
  /// Shared-bus bandwidth fraction observed at planning time (quantized to
  /// centi so plan-cache keys stay stable); 1.0 = healthy bus.
  double bus_factor = 1.0;
  /// drift_tracking only: the window plan's isolated DES makespan (the
  /// prediction the planner arbitrated on).
  double predicted_makespan_ms = 0.0;
};

struct OnlineResult {
  Timeline timeline;
  /// Completion latency per request (finish - arrival), in request order;
  /// -1 for requests the admission controller shed (never executed).
  std::vector<double> completion_ms;
  /// Per request: false when the request was shed.
  std::vector<bool> admitted;
  /// Planner invocations (= windows not served from the plan cache):
  /// cold + warm + degraded; cold replans = replans - warm_hits - degraded_hits.
  int replans = 0;
  /// Windows served straight from the plan cache (exact key hit).
  int cache_hits = 0;
  /// Windows replanned warm from a near-miss cached plan.
  int warm_hits = 0;
  /// Windows replanned degraded from their cached healthy plan after a
  /// processor drop-out (Hetero2PipePlanner::plan_degraded).
  int degraded_hits = 0;
  /// Totals of WindowStats::hidden_ms / charged_ms over all windows.
  double planning_hidden_ms = 0.0;
  double planning_charged_ms = 0.0;
  /// Deadline/SLO totals over the whole stream.
  std::size_t deadline_misses = 0;
  std::size_t shed_requests = 0;
  /// Defer *events* (one request deferred twice counts twice).
  std::size_t deferred_requests = 0;
  /// Per processor: modeled time at which the loop declared it dead after
  /// exhausting backoff retries; -1 = never declared.
  std::vector<double> declared_dead_ms;
  /// Closed-thermal-loop accounting: how often the derived bucket moved,
  /// and where it ended up.
  std::size_t bucket_transitions = 0;
  std::size_t final_thermal_bucket = 0;
  /// Windows that planned under an active shared-bus degradation / after a
  /// correlated weather onset first became visible.
  std::size_t bus_degraded_windows = 0;
  std::size_t weather_onsets = 0;
  /// One entry per executed window, in stream order (windows whose every
  /// request was shed or deferred do not execute and leave no entry).
  std::vector<WindowStats> windows;
  /// drift_tracking only: one record per executed slice, in the task order
  /// of the merged timeline.
  std::vector<obs::SliceRecord> slice_records;
};

/// Online Hetero2Pipe: requests are grouped into windows of
/// `replan_window` in arrival order; each window is planned independently
/// (two-step planner) against the processors currently believed available,
/// lowered once via exec::compile, and its tasks are released once all of
/// its requests have arrived and the plan is made.  Windows pipeline into
/// each other on the processors via the simulator's FIFO dispatch, so the
/// device never drains between windows.  Repeated windows reuse the cached
/// CompiledPlan and skip the planner; near-miss windows can warm-start from
/// it (`warm_start`); windows hit by a processor drop-out replan degraded
/// from their cached healthy plan; and the planning itself can run
/// concurrently with the loop (`async_planning`) without changing any
/// modeled number.
///
/// Throws std::invalid_argument for inconsistent options (replan_window of
/// 0, warm_start without use_plan_cache, async_planning without a pool or
/// with prefetch_depth 0) — misconfigurations that previously degraded
/// silently.
OnlineResult run_online(const Soc& soc, const std::vector<OnlineRequest>& stream,
                        const OnlineOptions& options = {});

}  // namespace h2p
