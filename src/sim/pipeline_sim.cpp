#include "sim/pipeline_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"

namespace h2p {
namespace {

/// Thread-local lowering + scratch state: the compatibility wrappers and the
/// makespan scoring entries route through one per-thread context, so each
/// planning thread (tail sweeps, warm-start auditions, graph arbitration)
/// runs allocation-free after its first, largest evaluation.
struct DesContext {
  sim::TaskTable table;
  sim::SimScratch scratch;
  Timeline timeline;
};

DesContext& tls_ctx() {
  thread_local DesContext ctx;
  return ctx;
}

}  // namespace

void simulate(const Soc& soc, const sim::TaskTable& table,
              sim::SimScratch& scratch, Timeline& out,
              const SimOptions& options) {
  const std::size_t n = table.size();
  const std::size_t P = soc.num_processors();
  out.num_procs = P;
  out.num_models = table.num_models;
  if (n > 0 && table.max_proc_idx >= P) {
    out.tasks.clear();
    throw std::invalid_argument("simulate: task references unknown processor");
  }
  if (n == 0) {
    out.tasks.clear();
    return;
  }

  static obs::Counter& c_tasks = obs::Registry::global().counter("des.tasks");
  static obs::Counter& c_migrations =
      obs::Registry::global().counter("des.migrations");
  static obs::Counter& c_probes =
      obs::Registry::global().counter("des.dispatch_probes");
  static obs::Counter& c_fault_steps =
      obs::Registry::global().counter("des.fault_segment_steps");
  c_tasks.inc(n);
  obs::Span des_span("des.simulate");
  des_span.arg("tasks", static_cast<double>(n));

  ContentionModel contention(soc);
  const FaultScript* faults = options.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;

  // Fault-window edges: the clock never integrates across one, so the fault
  // state (availability, slowdown factor) is constant over every dt step.
  std::span<const double> fault_edges;
  std::size_t fault_cursor = 0;
  if (faults != nullptr) fault_edges = faults->edges();
  // The fault state at `now`, from a forward-only cursor over the script's
  // segments: the clock never moves backwards, so each event reads masks,
  // slowdowns and the bus factor in O(1) instead of binary-searching.
  std::optional<FaultScript::Cursor> fault_state;
  if (faults != nullptr) fault_state.emplace(*faults);
  std::size_t fault_segment = std::numeric_limits<std::size_t>::max();
  double fault_bus = 1.0;
  std::size_t fault_steps = 0;  // cursor advances plus segments crossed

  // Without a fault script nothing can migrate, so the scratch views the
  // table's columns directly instead of copying them.
  scratch.prepare(table, P, /*alias_columns=*/faults == nullptr);
  // resize, not clear-then-resize: every slot [0, n) is overwritten at its
  // task's retirement before the function returns, and skipping the
  // clear makes the steady-state reuse a no-op size compare instead of a
  // value-initializing re-append of the whole record array.
  out.tasks.resize(n);

  std::span<std::uint8_t> done = scratch.done;
  std::span<std::uint8_t> started = scratch.started;
  std::span<std::uint32_t> run_task = scratch.run_task;
  std::span<double> run_remaining = scratch.run_remaining;
  std::span<double> run_start = scratch.run_start;
  std::span<double> run_solo = scratch.run_solo;
  std::size_t& running_size = scratch.running_size;
  std::span<std::int32_t> proc_running = scratch.proc_running;
  const std::size_t Pp = scratch.padded_procs;

  // Dense Eq. 2 operands: one coupling row per victim processor,
  // zero-padded and zero-diagonal, against a per-event aggressor intensity
  // buffer indexed by processor.  gamma depends only on processor kinds, so
  // the rows are refilled only when the kind signature or the carve address
  // changes (see SimScratch::coupling_sig) — steady-state scoring sweeps
  // reuse the previous run's rows.
  std::uint64_t sig = (static_cast<std::uint64_t>(P) << 8) | 1u;
  for (std::size_t p = 0; p < P; ++p) {
    sig = sig * 131u + static_cast<std::uint64_t>(soc.processor(p).kind);
  }
  if (sig != scratch.coupling_sig ||
      scratch.coupling.data() != scratch.coupling_ptr) {
    contention.fill_coupling_rows(scratch.coupling, Pp);
    // Column-major mirror for the all-victims matvec; victim rows past P
    // don't exist and contribute exact zeros.
    for (std::size_t q = 0; q < Pp; ++q) {
      for (std::size_t v = 0; v < Pp; ++v) {
        scratch.coupling_t[q * Pp + v] =
            v < P ? scratch.coupling[v * Pp + q] : 0.0;
      }
    }
    scratch.coupling_sig = sig;
    scratch.coupling_ptr = scratch.coupling.data();
  }

  double now = 0.0;
  std::size_t completed = 0;
  const double eps = 1e-9;

  // Event-driven readiness.  A task is ready once its unmet count — one per
  // dependency edge, plus one for a strictly-positive arrival — drops to
  // zero: retirements release successors through succs_of and the arrival
  // cursor releases arrivals as the clock passes them.  A ready task
  // waits in its processor's min-heap of dispatch ranks, so a free
  // processor starts the lowest (model, seq, index) ready task without
  // scanning the tasks that are still blocked.
  std::span<std::uint32_t> unmet = scratch.unmet;
  std::span<std::uint32_t> heap_data = scratch.ready_heap;
  std::span<std::uint32_t> heap_base = scratch.heap_base;
  std::span<std::uint32_t> heap_size = scratch.heap_size;
  std::size_t probes = 0;  // ready-heap entries pushed, popped or rescanned
  const std::greater<std::uint32_t> min_heap;
  auto push_ready = [&](std::size_t i) {
    const std::size_t p = scratch.proc[i];
    std::uint32_t* h = heap_data.data() + heap_base[p];
    h[heap_size[p]++] = table.dispatch_rank[i];
    std::push_heap(h, h + heap_size[p], min_heap);
    ++probes;
  };
  auto release = [&](std::size_t i) {
    if (--unmet[i] == 0) push_ready(i);
  };

  // Give every processor a heap region sized by its unfinished tasks (each
  // is pushed at most once while assigned to it) and fill it with the ready
  // ones, appended in rank order, which already is heap order.  Runs once
  // up front and again after a permanent drop-out has moved tasks between
  // processors.
  auto rebuild_ready_heaps = [&] {
    std::fill(heap_base.begin(), heap_base.end(), std::uint32_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i]) ++heap_base[scratch.proc[i] + 1];
    }
    for (std::size_t p = 0; p < P; ++p) heap_base[p + 1] += heap_base[p];
    std::fill(heap_size.begin(), heap_size.end(), std::uint32_t{0});
    for (const std::uint32_t i : table.dispatch_order) {
      if (unmet[i] != 0 || started[i] || done[i]) continue;
      const std::size_t p = scratch.proc[i];
      heap_data[heap_base[p] + heap_size[p]++] = table.dispatch_rank[i];
      ++probes;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    unmet[i] = table.dep_offsets[i + 1] - table.dep_offsets[i] +
               static_cast<std::uint32_t>(table.arrival_ms[i] > 0.0);
  }
  rebuild_ready_heaps();

  // Strictly-positive arrivals (table.arrival_order) are released in time
  // order; the cursor then names the first one still in the future.
  std::size_t arrival_cursor = 0;
  auto admit_arrivals = [&] {
    while (arrival_cursor < table.arrival_order.size() &&
           table.arrival_ms[table.arrival_order[arrival_cursor]] <= now + eps) {
      release(table.arrival_order[arrival_cursor++]);
    }
  };
  auto next_arrival_ms = [&]() -> double {
    return arrival_cursor < table.arrival_order.size()
               ? table.arrival_ms[table.arrival_order[arrival_cursor]]
               : std::numeric_limits<double>::infinity();
  };

  // First fault edge strictly after `now`, +inf when none remain.
  auto next_fault_edge_ms = [&]() -> double {
    while (fault_cursor < fault_edges.size() &&
           fault_edges[fault_cursor] <= now + eps) {
      ++fault_cursor;
    }
    return fault_cursor < fault_edges.size()
               ? fault_edges[fault_cursor]
               : std::numeric_limits<double>::infinity();
  };

  // Permanent-drop-out handling: once a processor's drop-out is known to be
  // permanent, every pending task assigned to it (queued or running; a
  // running one loses its progress) migrates to its cheapest legal fallback
  // per the table's flattened alt costs, keeping its (model, seq) chain
  // position.  Determinism: procs are swept in index order, each one's
  // tasks in (model, seq, index) order, and targets break ties on the
  // lowest index, so replays are bit-identical.  Migration mutates only the
  // scratch copies — the table stays read-only.
  auto migrate_task = [&](std::size_t i) {
    std::size_t best = P;
    double best_solo = std::numeric_limits<double>::infinity();
    for (std::size_t q = 0; q < table.alt_procs && q < P; ++q) {
      if (q == scratch.proc[i] || scratch.proc_dead[q]) continue;
      if (fault_state->permanently_down(q)) continue;
      const double alt_solo = table.alt_solo_ms[i * table.alt_procs + q];
      if (!(alt_solo < best_solo)) continue;
      best = q;
      best_solo = alt_solo;
    }
    if (best >= P) {
      obs::Log::global().error(
          "des.task_stranded",
          {{"task", i},
           {"proc", static_cast<std::size_t>(scratch.proc[i])},
           {"t_ms", now}});
      throw std::runtime_error(
          "simulate: task stranded on a permanently dropped processor with "
          "no usable fallback (alt row)");
    }
    c_migrations.inc();
    obs::Tracer::global().instant(
        "des.migrate", {{"task", static_cast<double>(i)},
                        {"from", static_cast<double>(scratch.proc[i])},
                        {"to", static_cast<double>(best)}});
    scratch.proc[i] = static_cast<std::uint32_t>(best);
    scratch.solo[i] = table.alt_solo_ms[i * table.alt_procs + best];
    scratch.sens[i] = table.alt_sensitivity[i * table.alt_procs + best];
    scratch.intens[i] = table.alt_intensity[i * table.alt_procs + best];
    started[i] = 0;
  };
  auto sweep_permanent_faults = [&] {
    bool moved = false;
    for (std::size_t p = 0; p < P; ++p) {
      if (scratch.proc_dead[p] || !fault_state->permanently_down(p)) continue;
      scratch.proc_dead[p] = 1;
      obs::Log::global().warn("des.proc_permanently_down",
                              {{"proc", p}, {"t_ms", now}});
      obs::Tracer::global().instant("des.proc_permanently_down",
                                    {{"proc", static_cast<double>(p)}});
      // Abort the running task first so it migrates like the queued ones.
      // proc_running holds the task index, so find its running slot by
      // scanning (cold path — permanent drop-outs are rare by design).
      if (proc_running[p] >= 0) {
        const auto t = static_cast<std::uint32_t>(proc_running[p]);
        std::size_t ri = 0;
        while (ri < running_size && run_task[ri] != t) ++ri;
        started[t] = 0;
        for (std::size_t rj = ri; rj + 1 < running_size; ++rj) {
          run_task[rj] = run_task[rj + 1];
          run_remaining[rj] = run_remaining[rj + 1];
          run_start[rj] = run_start[rj + 1];
          run_solo[rj] = run_solo[rj + 1];
        }
        --running_size;
        // Keep the padded tail an exact 0.0 for the masked lane kernels.
        run_remaining[running_size] = 0.0;
        proc_running[p] = -1;
      }
      std::size_t pending_n = 0;
      for (const std::uint32_t i : table.dispatch_order) {
        if (!done[i] && scratch.proc[i] == p) scratch.pending[pending_n++] = i;
      }
      probes += n;
      for (std::size_t k = 0; k < pending_n; ++k) {
        migrate_task(scratch.pending[k]);
      }
      moved = true;
    }
    if (moved) {
      rebuild_ready_heaps();
      probes += n;
    }
  };

  auto start_eligible = [&] {
    for (std::size_t p = 0; p < P; ++p) {
      if (proc_running[p] >= 0 || heap_size[p] == 0) continue;
      if (faults != nullptr && !fault_state->available(p)) continue;
      std::uint32_t* h = heap_data.data() + heap_base[p];
      std::pop_heap(h, h + heap_size[p], min_heap);
      const std::size_t bi = table.dispatch_order[h[--heap_size[p]]];
      ++probes;
      started[bi] = 1;
      proc_running[p] = static_cast<std::int32_t>(bi);
      run_task[running_size] = static_cast<std::uint32_t>(bi);
      run_remaining[running_size] = std::max(scratch.solo[bi], 0.0);
      run_start[running_size] = now;
      run_solo[running_size] = scratch.solo[bi];
      ++running_size;
    }
  };

  // Per-event rates, computed once and reused for both the dt search and
  // the advance.  Gather-free dense Eq. 2: every processor carries at most
  // one running task, so the aggressor set *is* a per-processor intensity
  // vector — scatter each running task's intensity to its processor slot,
  // then ONE vertical matvec over the transposed coupling matrix prices
  // every victim processor at once (each row is diagonal-zero, so the sum
  // self-excludes exactly).  Bit-identical to the old per-victim
  // aggressor-list walk: fixed_matvec_cols replays fixed_dot's term order
  // per victim (see util/simd.h), the list enumerated aggressors in the
  // same ascending processor order, and the skipped self entry contributes
  // gamma(p,p) * I = 0 exactly.
  std::span<double> rates = scratch.rates;
  std::span<double> proc_intensity = scratch.proc_intensity;
  std::span<double> extra_by_proc = scratch.extra_by_proc;
  const double* coupling_t = scratch.coupling_t.data();
  auto compute_rates = [&] {
    // Keep padded tail slots [running_size, Pp) at an exact 0.0 so the
    // masked min-dt lane kernel blends them out.
    for (std::size_t q = 0; q < Pp; ++q) rates[q] = 0.0;
    for (std::size_t ri = 0; ri < running_size; ++ri) rates[ri] = 1.0;
    if (running_size > 1) {
      for (std::size_t q = 0; q < Pp; ++q) proc_intensity[q] = 0.0;
      for (std::size_t ri = 0; ri < running_size; ++ri) {
        const std::size_t t = run_task[ri];
        proc_intensity[scratch.proc[t]] = scratch.intens[t];
      }
      simd::fixed_matvec_cols(coupling_t, proc_intensity.data(),
                              extra_by_proc.data(), Pp);
      for (std::size_t ri = 0; ri < running_size; ++ri) {
        const std::size_t t = run_task[ri];
        rates[ri] = 1.0 / ContentionModel::slowdown_from_extra(
                              extra_by_proc[scratch.proc[t]], scratch.sens[t]);
      }
    }
    if (faults != nullptr) {
      // Fault state is constant over [now, now + dt): dt never crosses an
      // edge.  A transiently dropped processor freezes its running task
      // (rate 0, driver queue preserved); a slowed one derates it.  A
      // degraded shared bus derates EVERY available task through the same
      // scalar bus_degrade_slowdown the reference simulator and the
      // verifier use, applied in lane order, so SoA and reference stay
      // bit-identical.
      for (std::size_t ri = 0; ri < running_size; ++ri) {
        const std::size_t t = run_task[ri];
        const std::size_t p = scratch.proc[t];
        if (!fault_state->available(p)) {
          rates[ri] = 0.0;
        } else {
          rates[ri] *= fault_state->slowdown(p);
          if (fault_bus < 1.0) {
            rates[ri] /= ContentionModel::bus_degrade_slowdown(
                fault_bus, scratch.sens[t]);
          }
        }
      }
    }
  };

  std::size_t guard = 0;
  const std::size_t guard_max = 4 * n + 16 + 8 * fault_edges.size();
  while (completed < n) {
    if (++guard > guard_max + n * n) {
      throw std::runtime_error("simulate: no progress (dependency cycle?)");
    }
    admit_arrivals();
    if (faults != nullptr) {
      // Permanent drop-outs and the bus factor change only where the
      // cursor crosses into another segment.
      fault_steps += 1 + fault_state->advance(now);
      if (fault_state->segment() != fault_segment) {
        fault_segment = fault_state->segment();
        fault_bus = fault_state->bus_factor();
        sweep_permanent_faults();
      }
    }
    start_eligible();

    if (running_size == 0) {
      // Nothing runnable: jump to the next strictly-future arrival or fault
      // edge (a recovery can unblock a heap no arrival would).  Tasks that
      // have already arrived but are chain-blocked don't count — if only
      // those remain, the dependency graph is wedged.
      const double next_wake = std::min(next_arrival_ms(), next_fault_edge_ms());
      if (!std::isfinite(next_wake)) {
        throw std::runtime_error("simulate: deadlock — tasks blocked forever");
      }
      now = next_wake;
      continue;
    }

    // Advance to the earliest completion, next arrival or fault edge under
    // current rates (frozen tasks never finish within the step).
    compute_rates();
    // Masked lane reduction over the padded running set: frozen tasks
    // (rate <= 0) and the zeroed tail slots blend to +inf before the
    // horizontal min.  min/max are order-independent over finite doubles,
    // so the lane kernel matches the old slot-order scan bit for bit.
    double dt = simd::min_positive_ratio(run_remaining.data(), rates.data(),
                                         Pp, 1e-9);
    const double upcoming = next_arrival_ms();
    if (std::isfinite(upcoming)) dt = std::min(dt, upcoming - now);
    const double fault_edge = next_fault_edge_ms();
    if (std::isfinite(fault_edge)) dt = std::min(dt, fault_edge - now);
    if (!std::isfinite(dt)) {
      obs::Log::global().error("des.frozen_forever",
                               {{"t_ms", now},
                                {"running", running_size}});
      throw std::runtime_error(
          "simulate: every running task is frozen forever (permanent "
          "drop-out without migration?)");
    }
    dt = std::max(dt, 0.0);

    // In-place lane-wide advance; tail slots stay 0 - 0*dt = 0 exactly.
    simd::mul_sub_inplace(run_remaining.data(), rates.data(), dt, Pp);
    now += dt;

    // Retire finished tasks, compacting `running` in place (stable, so the
    // aggressor enumeration order next event matches the rebuild-based
    // original exactly).
    std::size_t w = 0;
    for (std::size_t ri = 0; ri < running_size; ++ri) {
      if (run_remaining[ri] <= eps) {
        const std::size_t i = run_task[ri];
        done[i] = 1;
        proc_running[scratch.proc[i]] = -1;
        for (const std::uint32_t s : table.succs_of(i)) release(s);
        ++completed;
        TaskRecord rec;
        rec.model_idx = table.model_idx[i];
        rec.seq_in_model = table.seq_in_model[i];
        rec.proc_idx = scratch.proc[i];
        rec.start_ms = run_start[ri];
        rec.end_ms = now;
        rec.solo_ms = run_solo[ri];
        out.tasks[i] = rec;
      } else {
        run_task[w] = run_task[ri];
        run_remaining[w] = run_remaining[ri];
        run_start[w] = run_start[ri];
        run_solo[w] = run_solo[ri];
        ++w;
      }
    }
    // Re-zero the vacated tail so next event's masked kernels see exact 0s.
    // proc_running needs no rebuild: it maps processors to task indices
    // (cleared at retirement above), which compaction doesn't disturb.
    for (std::size_t ri = w; ri < running_size; ++ri) run_remaining[ri] = 0.0;
    running_size = w;
  }
  c_probes.inc(probes);
  c_fault_steps.inc(fault_steps);
}

Timeline simulate(const Soc& soc, const sim::TaskTable& table,
                  const SimOptions& options) {
  Timeline out;
  simulate(soc, table, tls_ctx().scratch, out, options);
  return out;
}

Timeline simulate(const Soc& soc, const exec::CompiledPlan& compiled,
                  const SimOptions& options) {
  sim::TaskTable& table = tls_ctx().table;
  table.build_from_compiled(compiled, soc.num_processors());
  return simulate(soc, table, options);
}

Timeline simulate(const Soc& soc, std::span<const SimTask> tasks,
                  const SimOptions& options) {
  sim::TaskTable& table = tls_ctx().table;
  table.build_from_tasks(tasks, soc.num_processors());
  return simulate(soc, table, options);
}

double simulate_plan_makespan(const PipelinePlan& plan,
                              const StaticEvaluator& eval,
                              const SimOptions& options) {
  DesContext& ctx = tls_ctx();
  ctx.table.build_from_plan(plan, eval);
  simulate(eval.soc(), ctx.table, ctx.scratch, ctx.timeline, options);
  return ctx.timeline.makespan_ms();
}

std::vector<SimTask> tasks_from_compiled(const exec::CompiledPlan& compiled) {
  std::vector<SimTask> tasks;
  tasks.reserve(compiled.slices.size());
  const std::size_t fp = compiled.fallback_procs;
  const bool with_alt =
      fp > 0 && compiled.fallback.size() == compiled.slices.size() * fp;
  for (std::size_t k = 0; k < compiled.slices.size(); ++k) {
    const exec::ScheduledSlice& s = compiled.slices[k];
    SimTask t;
    t.model_idx = s.model_idx;
    t.seq_in_model = s.seq_in_model;
    t.proc_idx = s.proc_idx;
    t.solo_ms = s.solo_ms();
    t.sensitivity = s.sensitivity;
    t.intensity = s.intensity;
    // Slice deps are already global slice indices, and slices map 1:1 onto
    // tasks — carry the edges over verbatim.
    t.explicit_deps = true;
    t.deps = s.deps;
    if (with_alt) {
      t.alt.resize(fp);
      for (std::size_t q = 0; q < fp; ++q) {
        const exec::CompiledPlan::FallbackCost& fc = compiled.fallback[k * fp + q];
        t.alt[q] = SimTask::AltCost{fc.solo_ms, fc.sensitivity, fc.intensity};
      }
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

Timeline simulate_plan(const PipelinePlan& plan, const StaticEvaluator& eval,
                       const SimOptions& options) {
  return simulate(eval.soc(), exec::compile(plan, eval), options);
}

}  // namespace h2p
