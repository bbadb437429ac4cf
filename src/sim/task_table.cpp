#include "sim/task_table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/bubbles.h"
#include "core/plan.h"
#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"
#include "util/simd.h"

namespace h2p::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void TaskTable::clear() {
  n_ = num_slots_ = finalized_min_procs_ = 0;
  max_proc_idx = alt_procs = num_models = num_procs = 0;
  plan_structure_ = false;
  for (auto* col : {&model_idx, &seq_in_model, &proc_idx, &dep_offsets,
                    &dep_edges, &dispatch_order, &dispatch_rank,
                    &arrival_order, &succ_offsets, &succ_edges}) {
    col->clear();
  }
  for (auto* col : {&solo_ms, &sensitivity, &intensity, &arrival_ms,
                    &alt_solo_ms, &alt_sensitivity, &alt_intensity}) {
    col->clear();
  }
}

void TaskTable::finish(std::size_t min_procs) {
  const std::size_t n = n_;
  // Structure-reuse bookkeeping: build_from_plan re-sets plan_structure_
  // after this returns; any other builder leaves it cleared.
  plan_structure_ = false;
  finalized_min_procs_ = min_procs;
  dep_offsets.resize(n + 1);  // builders fill; guard the empty-table case
  if (n == 0 && dep_offsets[0] != 0) dep_offsets[0] = 0;

  num_models = 0;
  num_procs = min_procs;
  max_proc_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num_models = std::max<std::size_t>(num_models, model_idx[i] + 1);
    num_procs = std::max<std::size_t>(num_procs, proc_idx[i] + 1);
    max_proc_idx = std::max<std::size_t>(max_proc_idx, proc_idx[i]);
  }

  // Validate the edges here so every entry path throws the same error the
  // AoS simulator did; the same walk counts each task's dependents for the
  // forward adjacency.
  succ_offsets.assign(n + 1, 0);
  for (const std::uint32_t d : dep_edges) {
    if (d >= n) {
      throw std::invalid_argument("simulate: dependency on unknown task");
    }
    ++succ_offsets[d + 1];
  }

  // Dispatch order: every task by (model, seq, index), the order in which
  // a free processor picks among its ready tasks.  The plan and
  // compiled-plan lowerings emit tasks model-major with ascending seq, so
  // index order already is it; arbitrary AoS inputs (build_from_tasks)
  // are sorted.
  dispatch_order.resize(n);
  bool index_sorted = true;
  for (std::size_t i = 0; i < n; ++i) {
    dispatch_order[i] = static_cast<std::uint32_t>(i);
    if (i > 0 && (model_idx[i - 1] > model_idx[i] ||
                  (model_idx[i - 1] == model_idx[i] &&
                   seq_in_model[i - 1] > seq_in_model[i]))) {
      index_sorted = false;
    }
  }
  if (!index_sorted) {
    std::sort(dispatch_order.begin(), dispatch_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (model_idx[a] != model_idx[b]) {
                  return model_idx[a] < model_idx[b];
                }
                if (seq_in_model[a] != seq_in_model[b]) {
                  return seq_in_model[a] < seq_in_model[b];
                }
                return a < b;
              });
  }
  dispatch_rank.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    dispatch_rank[dispatch_order[r]] = static_cast<std::uint32_t>(r);
  }

  // Forward adjacency, built with the usual in-place counting-sort cursor
  // trick; the DES releases a retirement's dependents through it.
  for (std::size_t i = 0; i < n; ++i) succ_offsets[i + 1] += succ_offsets[i];
  succ_edges.resize(n == 0 ? 0 : succ_offsets[n]);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::uint32_t e = dep_offsets[j]; e < dep_offsets[j + 1]; ++e) {
      succ_edges[succ_offsets[dep_edges[e]]++] = static_cast<std::uint32_t>(j);
    }
  }
  for (std::size_t i = n; i > 0; --i) succ_offsets[i] = succ_offsets[i - 1];
  succ_offsets[0] = 0;

  // Strictly-positive arrivals in ascending order (index tie-break: the
  // simulator releases every arrival due at an event before it dispatches,
  // so any deterministic order among equal arrivals is equivalent).
  arrival_order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (arrival_ms[i] > 0.0) {
      arrival_order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!arrival_order.empty()) {
    std::sort(arrival_order.begin(), arrival_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (arrival_ms[a] != arrival_ms[b]) {
                  return arrival_ms[a] < arrival_ms[b];
                }
                return a < b;
              });
  }
}

void TaskTable::build_from_tasks(std::span<const SimTask> tasks,
                                 std::size_t min_procs) {
  const std::size_t n = tasks.size();
  clear();
  model_idx.resize(n);
  seq_in_model.resize(n);
  proc_idx.resize(n);
  solo_ms.resize(n);
  sensitivity.resize(n);
  intensity.resize(n);
  arrival_ms.resize(n);
  dep_offsets.resize(n + 1);

  std::size_t max_alt = 0;
  std::vector<std::uint32_t> chain;  // implicit-chain tasks; usually none
  for (std::size_t i = 0; i < n; ++i) {
    const SimTask& t = tasks[i];
    model_idx[i] = static_cast<std::uint32_t>(t.model_idx);
    seq_in_model[i] = static_cast<std::uint32_t>(t.seq_in_model);
    proc_idx[i] = static_cast<std::uint32_t>(t.proc_idx);
    solo_ms[i] = t.solo_ms;
    sensitivity[i] = t.sensitivity;
    intensity[i] = t.intensity;
    arrival_ms[i] = t.arrival_ms;
    if (!t.explicit_deps) chain.push_back(static_cast<std::uint32_t>(i));
    max_alt = std::max(max_alt, t.alt.size());
  }

  // Each implicit task's one edge: the first task of its model's previous
  // distinct-seq group among the implicit tasks, in (model, seq, index)
  // order — the bucketed rule the reference simulator applies per run.
  std::vector<std::int32_t> chain_pred;
  if (!chain.empty()) {
    std::sort(chain.begin(), chain.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (model_idx[a] != model_idx[b]) return model_idx[a] < model_idx[b];
      if (seq_in_model[a] != seq_in_model[b]) {
        return seq_in_model[a] < seq_in_model[b];
      }
      return a < b;
    });
    chain_pred.assign(n, -1);
    std::int32_t group_first = -1;     // first task of the current seq group
    std::int32_t previous_first = -1;  // ... and of the group before it
    for (std::size_t q = 0; q < chain.size(); ++q) {
      const std::uint32_t i = chain[q];
      if (q == 0 || model_idx[chain[q - 1]] != model_idx[i]) {
        previous_first = -1;
        group_first = static_cast<std::int32_t>(i);
      } else if (seq_in_model[chain[q - 1]] != seq_in_model[i]) {
        previous_first = group_first;
        group_first = static_cast<std::int32_t>(i);
      }
      chain_pred[i] = previous_first;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    dep_offsets[i] = static_cast<std::uint32_t>(dep_edges.size());
    if (tasks[i].explicit_deps) {
      for (const std::size_t d : tasks[i].deps) {
        dep_edges.push_back(static_cast<std::uint32_t>(d));
      }
    } else if (chain_pred[i] >= 0) {
      dep_edges.push_back(static_cast<std::uint32_t>(chain_pred[i]));
    }
  }
  dep_offsets[n] = static_cast<std::uint32_t>(dep_edges.size());

  if (max_alt > 0) {
    // Per-task alt lists may have ragged lengths; pad with +inf solo (an
    // illegal migration target, exactly what the AoS bound check skipped).
    alt_procs = max_alt;
    alt_solo_ms.assign(n * max_alt, kInf);
    alt_sensitivity.assign(n * max_alt, 0.0);
    alt_intensity.assign(n * max_alt, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t q = 0; q < tasks[i].alt.size(); ++q) {
        alt_solo_ms[i * max_alt + q] = tasks[i].alt[q].solo_ms;
        alt_sensitivity[i * max_alt + q] = tasks[i].alt[q].sensitivity;
        alt_intensity[i * max_alt + q] = tasks[i].alt[q].intensity;
      }
    }
  }
  n_ = n;
  finish(min_procs);
}

void TaskTable::append_compiled(const exec::CompiledPlan& compiled,
                                std::span<const double> root_arrival_ms,
                                std::span<const std::size_t> proc_map,
                                std::size_t num_procs) {
  const std::size_t base = n_;
  const std::size_t k = compiled.slices.size();
  const std::size_t n = base + k;
  const std::size_t fp = compiled.fallback_procs;
  const bool with_alt = fp > 0 && compiled.fallback.size() == k * fp;
  if ((!root_arrival_ms.empty() && root_arrival_ms.size() < compiled.num_models) ||
      (with_alt && !proc_map.empty() && proc_map.size() != fp)) {
    throw std::invalid_argument(
        "append_compiled: root arrivals or processor map do not fit the plan");
  }
  const auto physical = [&](std::size_t stage) {
    if (!proc_map.empty() && stage >= proc_map.size()) {
      throw std::invalid_argument("append_compiled: stage outside processor map");
    }
    return static_cast<std::uint32_t>(proc_map.empty() ? stage : proc_map[stage]);
  };

  plan_structure_ = false;
  for (auto* col : {&model_idx, &seq_in_model, &proc_idx}) col->resize(n);
  for (auto* col : {&solo_ms, &sensitivity, &intensity, &arrival_ms}) {
    col->resize(n);
  }
  dep_offsets.resize(n + 1);  // dep_offsets[base] is 0 or the edge count
  dep_edges.resize(dep_offsets[base]);
  for (std::size_t j = 0; j < k; ++j) {
    const exec::ScheduledSlice& s = compiled.slices[j];
    const std::size_t row = base + j;
    model_idx[row] = static_cast<std::uint32_t>(num_slots_ + s.model_idx);
    seq_in_model[row] = static_cast<std::uint32_t>(s.seq_in_model);
    proc_idx[row] = physical(s.proc_idx);
    solo_ms[row] = s.solo_ms();
    sensitivity[row] = s.sensitivity;
    intensity[row] = s.intensity;
    const bool released = s.deps.empty() && !root_arrival_ms.empty();
    arrival_ms[row] = released ? root_arrival_ms[s.model_idx] : 0.0;
    dep_offsets[row] = static_cast<std::uint32_t>(dep_edges.size());
    for (const std::size_t d : s.deps) {
      if (d >= k) throw std::invalid_argument("simulate: dependency on unknown task");
      dep_edges.push_back(static_cast<std::uint32_t>(base + d));
    }
  }
  dep_offsets[n] = static_cast<std::uint32_t>(dep_edges.size());
  n_ = n;
  num_slots_ += compiled.num_models;

  // Fallback rows are `alt_procs` wide in physical processor space; rows
  // appended before the first fallback table, rows without one and the
  // processors a map leaves out are illegal targets (+inf), as
  // build_from_tasks pads a ragged alt list.
  if (with_alt && alt_procs == 0) {
    alt_procs = std::max(num_procs, proc_map.empty() ? fp : 0);
    for (const std::size_t p : proc_map) alt_procs = std::max(alt_procs, p + 1);
  }
  if (alt_procs == 0) return;
  alt_solo_ms.resize(n * alt_procs, kInf);
  alt_sensitivity.resize(n * alt_procs, 0.0);
  alt_intensity.resize(n * alt_procs, 0.0);
  for (std::size_t e = 0; with_alt && e < k * fp; ++e) {
    const std::size_t q = physical(e % fp);
    if (q >= alt_procs) {
      throw std::invalid_argument("append_compiled: fallback too wide");
    }
    const std::size_t cell = (base + e / fp) * alt_procs + q;
    alt_solo_ms[cell] = compiled.fallback[e].solo_ms;
    alt_sensitivity[cell] = compiled.fallback[e].sensitivity;
    alt_intensity[cell] = compiled.fallback[e].intensity;
  }
}

void TaskTable::build_from_compiled(const exec::CompiledPlan& compiled,
                                    std::size_t min_procs) {
  clear();
  append_compiled(compiled);
  finish(min_procs);
}

void TaskTable::build_from_plan(const PipelinePlan& plan,
                                const StaticEvaluator& eval) {
  const std::size_t P = eval.soc().num_processors();
  const std::uint64_t generation = eval.generation();
  const std::size_t m = plan.models.size();
  if (slot_memo_.size() < m) slot_memo_.resize(m);

  // Refresh every slot whose memo key changed, in slot order, through the
  // one lowering (exec::lower_range validates each range, so the first
  // error thrown comes from the first bad slot); then count.
  std::size_t n = 0;
  std::size_t num_edges = 0;
  for (std::size_t slot = 0; slot < m; ++slot) {
    const ModelPlan& mp = plan.models[slot];
    SlotMemo& memo = slot_memo_[slot];
    if (memo.generation != generation || memo.model_index != mp.model_index ||
        memo.slices != mp.slices) {
      memo.generation = 0;
      memo.rows.clear();
      for (std::size_t k = 0; k < mp.slices.size(); ++k) {
        const Slice& sl = mp.slices[k];
        if (sl.empty()) continue;
        memo.rows.push_back(exec::lower_range(eval, mp.model_index, slot,
                                              memo.rows.size(), k, sl.begin,
                                              sl.end));
      }
      memo.model_index = mp.model_index;
      memo.slices = mp.slices;
      memo.generation = generation;
    }
    n += memo.rows.size();
    if (!memo.rows.empty()) num_edges += memo.rows.size() - 1;
  }

  // No clear(): every cell in [0, n) is overwritten below, so in the steady
  // state (a rescoring sweep re-lowering same-shaped candidates) every
  // resize here and in finish() is a no-op size compare instead of a
  // libstdc++ default-append memset.  The alt fallback table is detached by
  // stride: stale alt columns from a previous build_from_tasks are never
  // indexed once alt_procs is 0.
  alt_procs = 0;
  // Rescoring sweeps mutate slice *boundaries*, not slot-to-processor
  // assignments, so successive candidates usually share the exact task
  // structure — and every derived structure finish() rebuilds (dispatch
  // order, forward adjacency, arrival order) depends only on the
  // structural columns.  `same` gates a per-cell verification in the fill
  // loop below: if the previous build was a plan lowering with the same n
  // and P, and every (model, proc) cell verifies unchanged, finish() is
  // skipped outright.  Verification is exact equality, not a hash — a
  // single differing cell falls back to the full rebuild.
  bool same = plan_structure_ && n == n_ && P == finalized_min_procs_;
  for (auto* col : {&model_idx, &seq_in_model, &proc_idx}) col->resize(n);
  for (auto* col : {&solo_ms, &sensitivity, &intensity, &arrival_ms}) {
    col->resize(n);
  }
  dep_offsets.resize(n + 1);
  dep_edges.resize(num_edges);

  std::size_t w = 0;
  std::size_t e = 0;
  for (std::size_t slot = 0; slot < m; ++slot) {
    const auto mi = static_cast<std::uint32_t>(slot);
    const std::vector<exec::ScheduledSlice>& rows = slot_memo_[slot].rows;
    for (std::size_t seq = 0; seq < rows.size(); ++seq) {
      const exec::ScheduledSlice& row = rows[seq];
      const auto proc = static_cast<std::uint32_t>(row.proc_idx);
      // The (model, proc) pair determines every other structural cell for a
      // plan lowering (seq counts within the slot, deps chain within the
      // model), so these two compares verify the whole row.
      same = same && model_idx[w] == mi && proc_idx[w] == proc;
      model_idx[w] = mi;
      seq_in_model[w] = static_cast<std::uint32_t>(seq);
      proc_idx[w] = proc;
      solo_ms[w] = row.solo_ms();
      sensitivity[w] = row.sensitivity;
      intensity[w] = row.intensity;
      arrival_ms[w] = 0.0;  // stale slots may hold a prior table's arrivals
      dep_offsets[w] = static_cast<std::uint32_t>(e);
      if (seq > 0) dep_edges[e++] = static_cast<std::uint32_t>(w - 1);
      ++w;
    }
  }
  dep_offsets[n] = static_cast<std::uint32_t>(e);
  n_ = n;
  if (same) return;  // derived structures from the previous build still hold
  finish(P);
  plan_structure_ = true;
}

void SimScratch::prepare(const TaskTable& table, std::size_t P,
                         bool alias_columns) {
  const std::size_t n = table.size();
  const std::size_t Pp = simd::padded_size(P);
  // One reservation covers the whole carve (plus per-span alignment slack —
  // every carve rounds up to the arena's 64-byte boundary), so spans never
  // move mid-prepare and steady-state cycles reuse the block.  The aliased
  // mode carves less, but reserving the private-copy footprint keeps one
  // arena block serving both modes.
  const std::size_t bytes =
      n * (5 * sizeof(std::uint32_t) + 3 * sizeof(double) +
           2 * sizeof(std::uint8_t)) +
      (P + 1) * (2 * sizeof(std::uint32_t) + sizeof(std::int32_t) +
                 sizeof(std::uint8_t)) +
      Pp * (4 * sizeof(double) + sizeof(std::uint32_t)) +
      P * Pp * sizeof(double) + (Pp * Pp + 2 * Pp) * sizeof(double) +
      24 * util::MonotonicArena::kAlignment;
  // Same (n, P) as the previous prepare -> every arena span is already
  // carved at the same address (the carve is deterministic), so skip the
  // reserve + twenty-odd bump allocations and go straight to
  // re-initialization.  The per-run fills below always run: they are what
  // makes a reused scratch bit-identical to a fresh one.
  const bool carved = prepared_n_ == n && prepared_P_ == P;
  if (!carved) {
    arena_.reset();
    arena_.reserve(bytes);
    rates = arena_.make_span<double>(Pp);
    run_task = arena_.make_span<std::uint32_t>(Pp);
    run_remaining = arena_.make_span<double>(Pp);
    run_start = arena_.make_span<double>(Pp);
    run_solo = arena_.make_span<double>(Pp);
    coupling = arena_.make_span<double>(P * Pp);
    proc_intensity = arena_.make_span<double>(Pp);
    coupling_t = arena_.make_span<double>(Pp * Pp);
    extra_by_proc = arena_.make_span<double>(Pp);
    unmet = arena_.make_span<std::uint32_t>(n);
    ready_heap = arena_.make_span<std::uint32_t>(n);
    heap_base = arena_.make_span<std::uint32_t>(P + 1);
    heap_size = arena_.make_span<std::uint32_t>(P);
    pending = arena_.make_span<std::uint32_t>(n);
    proc_running = arena_.make_span<std::int32_t>(P);
    done = arena_.make_span<std::uint8_t>(n);
    started = arena_.make_span<std::uint8_t>(n);
    proc_dead = arena_.make_span<std::uint8_t>(P);
    prepared_n_ = n;
    prepared_P_ = P;
    prepared_private_ = false;
  }
  padded_procs = Pp;

  if (alias_columns) {
    // No-fault run: nothing ever writes the per-task columns (migration is
    // the only writer and it requires a fault script), so view the table
    // directly and skip four column copies.  const_cast is confined to
    // building the view; the invariant is documented on the member
    // declarations.
    proc = {const_cast<std::uint32_t*>(table.proc_idx.data()), n};
    solo = {const_cast<double*>(table.solo_ms.data()), n};
    sens = {const_cast<double*>(table.sensitivity.data()), n};
    intens = {const_cast<double*>(table.intensity.data()), n};
  } else {
    // Lazy private carve: the reserve budget above always includes the
    // column copies, so the first copy-mode prepare at this geometry can
    // carve them even if an aliasing prepare came first.
    if (!prepared_private_) {
      priv_solo_ = arena_.make_span<double>(n);
      priv_sens_ = arena_.make_span<double>(n);
      priv_intens_ = arena_.make_span<double>(n);
      priv_proc_ = arena_.make_span<std::uint32_t>(n);
      prepared_private_ = true;
    }
    solo = priv_solo_;
    sens = priv_sens_;
    intens = priv_intens_;
    proc = priv_proc_;
    std::copy(table.proc_idx.begin(), table.proc_idx.end(), proc.begin());
    std::copy(table.solo_ms.begin(), table.solo_ms.begin() + n, solo.begin());
    std::copy(table.sensitivity.begin(), table.sensitivity.begin() + n,
              sens.begin());
    std::copy(table.intensity.begin(), table.intensity.begin() + n,
              intens.begin());
  }

  std::fill(done.begin(), done.end(), std::uint8_t{0});
  std::fill(started.begin(), started.end(), std::uint8_t{0});
  std::fill(proc_dead.begin(), proc_dead.end(), std::uint8_t{0});
  std::fill(proc_running.begin(), proc_running.end(), std::int32_t{-1});
  // The masked lane kernels read whole padded spans: keep the dead slots at
  // exact zeros so they never contribute.
  std::fill(rates.begin(), rates.end(), 0.0);
  std::fill(run_remaining.begin(), run_remaining.end(), 0.0);
  std::fill(run_start.begin(), run_start.end(), 0.0);
  std::fill(run_solo.begin(), run_solo.end(), 0.0);
  std::fill(run_task.begin(), run_task.end(), std::uint32_t{0});
  std::fill(proc_intensity.begin(), proc_intensity.end(), 0.0);

  running_size = 0;
}

}  // namespace h2p::sim
