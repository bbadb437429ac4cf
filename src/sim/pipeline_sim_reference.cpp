// Frozen copy of the AoS rate-based DES as it stood before the SoA
// TaskTable/SimScratch rewrite, minus the observability instrumentation.
// Kept only as the bit-identity oracle for pipeline_sim_test; see the
// header for the contract.
//
// Re-frozen alongside the SIMD rate kernels: the per-event Eq. 2 extra
// contention is now the *dense fixed-order* reduction documented in
// util/simd.h — aggressor intensities scattered into a per-processor
// vector, term q accumulated into accumulator q % 4 in ascending q, halves
// combined as (a0 + a1) + (a2 + a3) — hand-coded here with no simd.h
// dependency so the oracle stays independent of the code under test.  The
// old form walked an aggressor list in running-slot order, which is a
// different summation order for 3+ co-running tasks; keeping the oracle on
// that order would break the bit-identity contract against the vectorized
// DES for reasons that are pure reduction-order, not behaviour.

#include "sim/pipeline_sim_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace h2p::sim {
namespace {

struct Running {
  std::size_t task_idx;
  double remaining_solo_ms;
  double start_ms;
  double solo_ms;
};

}  // namespace

Timeline simulate_reference(const Soc& soc, std::vector<SimTask> tasks,
                            const SimOptions& options) {
  Timeline timeline;
  timeline.num_procs = soc.num_processors();
  const std::size_t n = tasks.size();
  for (const SimTask& t : tasks) {
    if (t.proc_idx >= soc.num_processors()) {
      throw std::invalid_argument("simulate: task references unknown processor");
    }
    if (t.explicit_deps) {
      for (const std::size_t d : t.deps) {
        if (d >= n) {
          throw std::invalid_argument("simulate: dependency on unknown task");
        }
      }
    }
    timeline.num_models = std::max(timeline.num_models, t.model_idx + 1);
  }
  if (n == 0) return timeline;

  const std::size_t P = soc.num_processors();
  const FaultScript* faults = options.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;

  std::span<const double> fault_edges;
  std::size_t fault_cursor = 0;
  if (faults != nullptr) fault_edges = faults->edges();

  // Chain predecessor resolution: latest smaller seq_in_model per model.
  std::vector<int> pred(n, -1);
  {
    std::vector<std::vector<std::size_t>> by_model(timeline.num_models);
    for (std::size_t i = 0; i < n; ++i) {
      if (!tasks[i].explicit_deps) by_model[tasks[i].model_idx].push_back(i);
    }
    for (std::vector<std::size_t>& bucket : by_model) {
      std::sort(bucket.begin(), bucket.end(), [&](std::size_t a, std::size_t b) {
        if (tasks[a].seq_in_model != tasks[b].seq_in_model) {
          return tasks[a].seq_in_model < tasks[b].seq_in_model;
        }
        return a < b;
      });
      std::size_t group_start = 0;
      for (std::size_t q = 0; q < bucket.size(); ++q) {
        if (tasks[bucket[q]].seq_in_model != tasks[bucket[group_start]].seq_in_model) {
          group_start = q;
        }
        if (group_start > 0) {
          std::size_t prev = group_start - 1;
          while (prev > 0 && tasks[bucket[prev - 1]].seq_in_model ==
                                 tasks[bucket[prev]].seq_in_model) {
            --prev;
          }
          pred[bucket[q]] = static_cast<int>(bucket[prev]);
        }
      }
    }
  }

  std::vector<bool> done(n, false);
  std::vector<bool> started(n, false);
  std::vector<int> proc_running(P, -1);  // index into running
  std::vector<Running> running;
  running.reserve(P);
  timeline.tasks.resize(n);

  std::vector<std::vector<std::size_t>> by_proc(P);
  std::vector<std::size_t> proc_cursor(P, 0);
  for (std::size_t i = 0; i < n; ++i) by_proc[tasks[i].proc_idx].push_back(i);
  for (std::vector<std::size_t>& q : by_proc) {
    std::sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      if (tasks[a].model_idx != tasks[b].model_idx) {
        return tasks[a].model_idx < tasks[b].model_idx;
      }
      if (tasks[a].seq_in_model != tasks[b].seq_in_model) {
        return tasks[a].seq_in_model < tasks[b].seq_in_model;
      }
      return a < b;
    });
  }

  std::vector<std::size_t> arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks[i].arrival_ms > 0.0) arrivals.push_back(i);
  }
  std::sort(arrivals.begin(), arrivals.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].arrival_ms < tasks[b].arrival_ms;
  });
  std::size_t arrival_cursor = 0;

  double now = 0.0;
  std::size_t completed = 0;
  const double eps = 1e-9;

  auto next_arrival_ms = [&]() -> double {
    while (arrival_cursor < arrivals.size()) {
      const std::size_t i = arrivals[arrival_cursor];
      if (!started[i] && !done[i] && tasks[i].arrival_ms > now + eps) {
        return tasks[i].arrival_ms;
      }
      ++arrival_cursor;
    }
    return std::numeric_limits<double>::infinity();
  };

  auto next_fault_edge_ms = [&]() -> double {
    while (fault_cursor < fault_edges.size() &&
           fault_edges[fault_cursor] <= now + eps) {
      ++fault_cursor;
    }
    return fault_cursor < fault_edges.size()
               ? fault_edges[fault_cursor]
               : std::numeric_limits<double>::infinity();
  };

  auto task_ready = [&](std::size_t i) {
    if (started[i] || done[i]) return false;
    if (tasks[i].arrival_ms > now + eps) return false;
    if (tasks[i].explicit_deps) {
      for (const std::size_t d : tasks[i].deps) {
        if (!done[d]) return false;
      }
      return true;
    }
    if (pred[i] >= 0 && !done[static_cast<std::size_t>(pred[i])]) return false;
    return true;
  };

  std::vector<bool> proc_dead(P, false);
  auto migrate_task = [&](std::size_t i) {
    const SimTask& t = tasks[i];
    std::size_t best = P;
    double best_solo = std::numeric_limits<double>::infinity();
    for (std::size_t q = 0; q < t.alt.size() && q < P; ++q) {
      if (q == t.proc_idx || proc_dead[q]) continue;
      if (faults->permanently_down(q, now)) continue;
      if (!(t.alt[q].solo_ms < best_solo)) continue;
      best = q;
      best_solo = t.alt[q].solo_ms;
    }
    if (best >= P) {
      throw std::runtime_error(
          "simulate: task stranded on a permanently dropped processor with "
          "no usable fallback (SimTask::alt)");
    }
    tasks[i].proc_idx = best;
    tasks[i].solo_ms = t.alt[best].solo_ms;
    tasks[i].sensitivity = t.alt[best].sensitivity;
    tasks[i].intensity = t.alt[best].intensity;
    started[i] = false;
    std::vector<std::size_t>& q = by_proc[best];
    const auto pos = std::lower_bound(
        q.begin(), q.end(), i, [&](std::size_t a, std::size_t b) {
          if (tasks[a].model_idx != tasks[b].model_idx) {
            return tasks[a].model_idx < tasks[b].model_idx;
          }
          if (tasks[a].seq_in_model != tasks[b].seq_in_model) {
            return tasks[a].seq_in_model < tasks[b].seq_in_model;
          }
          return a < b;
        });
    const auto idx = static_cast<std::size_t>(pos - q.begin());
    q.insert(pos, i);
    proc_cursor[best] = std::min(proc_cursor[best], idx);
  };
  auto sweep_permanent_faults = [&] {
    if (faults == nullptr) return;
    for (std::size_t p = 0; p < P; ++p) {
      if (proc_dead[p] || !faults->permanently_down(p, now)) continue;
      proc_dead[p] = true;
      if (proc_running[p] >= 0) {
        const auto ri = static_cast<std::size_t>(proc_running[p]);
        started[running[ri].task_idx] = false;
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(ri));
        std::fill(proc_running.begin(), proc_running.end(), -1);
        for (std::size_t rj = 0; rj < running.size(); ++rj) {
          proc_running[tasks[running[rj].task_idx].proc_idx] =
              static_cast<int>(rj);
        }
      }
      std::vector<std::size_t> pending;
      for (std::size_t pos = proc_cursor[p]; pos < by_proc[p].size(); ++pos) {
        if (!done[by_proc[p][pos]]) pending.push_back(by_proc[p][pos]);
      }
      by_proc[p].clear();
      proc_cursor[p] = 0;
      for (const std::size_t i : pending) migrate_task(i);
    }
  };

  auto start_eligible = [&] {
    for (std::size_t p = 0; p < P; ++p) {
      if (proc_running[p] >= 0) continue;
      if (faults != nullptr && !faults->available(p, now)) continue;
      const std::vector<std::size_t>& q = by_proc[p];
      std::size_t& cur = proc_cursor[p];
      while (cur < q.size() && done[q[cur]]) ++cur;
      int best = -1;
      for (std::size_t pos = cur; pos < q.size(); ++pos) {
        if (task_ready(q[pos])) {
          best = static_cast<int>(q[pos]);
          break;
        }
      }
      if (best >= 0) {
        const auto bi = static_cast<std::size_t>(best);
        started[bi] = true;
        proc_running[p] = static_cast<int>(running.size());
        running.push_back(Running{bi, std::max(tasks[bi].solo_ms, 0.0), now,
                                  tasks[bi].solo_ms});
      }
    }
  };

  std::vector<double> rates;
  rates.reserve(P);
  // Dense fixed-order Eq. 2 operands: zero-diagonal coupling rows padded to
  // a multiple of four, and a per-processor aggressor intensity vector
  // (every processor runs at most one task, so scattering is exact).  The
  // diagonal zero makes the dot product self-excluding, replacing the old
  // explicit skip.
  const std::size_t Pp = (P + 3) & ~static_cast<std::size_t>(3);
  std::vector<double> proc_intensity(Pp, 0.0);
  std::vector<double> coupling_rows(P * Pp, 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t q = 0; q < P; ++q) {
      coupling_rows[p * Pp + q] = soc.coupling(p, q);
    }
  }
  // Hand-coded simd::fixed_dot: term q into accumulator q % 4 ascending,
  // halves combined (a0 + a1) + (a2 + a3), multiplies left unfused.
  auto fixed_extra = [&](std::size_t victim_proc) {
    const double* row = coupling_rows.data() + victim_proc * Pp;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t q = 0; q + 4 <= Pp; q += 4) {
      a0 += row[q] * proc_intensity[q];
      a1 += row[q + 1] * proc_intensity[q + 1];
      a2 += row[q + 2] * proc_intensity[q + 2];
      a3 += row[q + 3] * proc_intensity[q + 3];
    }
    return (a0 + a1) + (a2 + a3);
  };
  auto compute_rates = [&] {
    rates.assign(running.size(), 1.0);
    if (running.size() > 1) {
      std::fill(proc_intensity.begin(), proc_intensity.end(), 0.0);
      for (const Running& o : running) {
        proc_intensity[tasks[o.task_idx].proc_idx] = tasks[o.task_idx].intensity;
      }
      for (std::size_t ri = 0; ri < running.size(); ++ri) {
        const Running& r = running[ri];
        const double extra = fixed_extra(tasks[r.task_idx].proc_idx);
        rates[ri] = 1.0 / ContentionModel::slowdown_from_extra(
                              extra, tasks[r.task_idx].sensitivity);
      }
    }
    if (faults != nullptr) {
      // Mirror of the SoA kernel's fault block, same scalar arithmetic in
      // the same lane order (bit-identity contract).
      const double bus =
          faults->has_bus_degrade() ? faults->bus_factor(now) : 1.0;
      for (std::size_t ri = 0; ri < running.size(); ++ri) {
        const SimTask& t = tasks[running[ri].task_idx];
        const std::size_t p = t.proc_idx;
        if (!faults->available(p, now)) {
          rates[ri] = 0.0;
        } else {
          rates[ri] *= faults->slowdown(p, now);
          if (bus < 1.0) {
            rates[ri] /= ContentionModel::bus_degrade_slowdown(
                bus, t.sensitivity);
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
    sweep_permanent_faults();
    start_eligible();

    if (running.empty()) {
      const double next_wake = std::min(next_arrival_ms(), next_fault_edge_ms());
      if (!std::isfinite(next_wake)) {
        throw std::runtime_error("simulate: deadlock — tasks blocked forever");
      }
      now = next_wake;
      continue;
    }

    compute_rates();
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t ri = 0; ri < running.size(); ++ri) {
      if (rates[ri] <= 0.0) continue;
      dt = std::min(dt, running[ri].remaining_solo_ms / std::max(rates[ri], 1e-9));
    }
    const double upcoming = next_arrival_ms();
    if (std::isfinite(upcoming)) dt = std::min(dt, upcoming - now);
    const double fault_edge = next_fault_edge_ms();
    if (std::isfinite(fault_edge)) dt = std::min(dt, fault_edge - now);
    if (!std::isfinite(dt)) {
      throw std::runtime_error(
          "simulate: every running task is frozen forever (permanent "
          "drop-out without migration?)");
    }
    dt = std::max(dt, 0.0);

    for (std::size_t ri = 0; ri < running.size(); ++ri) {
      running[ri].remaining_solo_ms -= rates[ri] * dt;
    }
    now += dt;

    std::size_t w = 0;
    for (std::size_t ri = 0; ri < running.size(); ++ri) {
      const Running& r = running[ri];
      if (r.remaining_solo_ms <= eps) {
        const std::size_t i = r.task_idx;
        done[i] = true;
        ++completed;
        TaskRecord rec;
        rec.model_idx = tasks[i].model_idx;
        rec.seq_in_model = tasks[i].seq_in_model;
        rec.proc_idx = tasks[i].proc_idx;
        rec.start_ms = r.start_ms;
        rec.end_ms = now;
        rec.solo_ms = r.solo_ms;
        timeline.tasks[i] = rec;
      } else {
        running[w++] = r;
      }
    }
    running.resize(w);
    std::fill(proc_running.begin(), proc_running.end(), -1);
    for (std::size_t ri = 0; ri < running.size(); ++ri) {
      proc_running[tasks[running[ri].task_idx].proc_idx] = static_cast<int>(ri);
    }
  }

  return timeline;
}

}  // namespace h2p::sim
