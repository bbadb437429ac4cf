// Deeper discrete-event-simulator anchors: conservation laws and agreement
// with a simple reference scheduler on randomly generated task graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sim/pipeline_sim.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace h2p {
namespace {

std::vector<SimTask> random_task_graph(Rng& rng, std::size_t num_procs) {
  const std::size_t num_models = 2 + rng.index(5);
  std::vector<SimTask> tasks;
  for (std::size_t m = 0; m < num_models; ++m) {
    const std::size_t chain = 1 + rng.index(4);
    for (std::size_t s = 0; s < chain; ++s) {
      SimTask t;
      t.model_idx = m;
      t.seq_in_model = s;
      t.proc_idx = rng.index(num_procs);
      t.solo_ms = rng.uniform(0.5, 20.0);
      t.sensitivity = rng.uniform(0.0, 1.0);
      t.intensity = rng.uniform(0.0, 1.0);
      t.arrival_ms = (s == 0) ? rng.uniform(0.0, 10.0) : 0.0;
      tasks.push_back(t);
    }
  }
  return tasks;
}

/// Reference list scheduler (contention-free): greedily advance time,
/// starting the lowest-(model, seq) ready task per free processor — the
/// same policy the DES implements, executed naively.
double reference_makespan(const Soc& soc, std::vector<SimTask> tasks) {
  const std::size_t n = tasks.size();
  std::vector<double> finish(n, -1.0);
  std::vector<double> proc_free(soc.num_processors(), 0.0);
  std::size_t done = 0;
  double makespan = 0.0;
  while (done < n) {
    // Find the earliest-startable ready task (FIFO tie-break).
    double best_start = 1e300;
    int best = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (finish[i] >= 0.0) continue;
      double ready = tasks[i].arrival_ms;
      bool blocked = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (tasks[j].model_idx == tasks[i].model_idx &&
            tasks[j].seq_in_model < tasks[i].seq_in_model) {
          if (finish[j] < 0.0) {
            blocked = true;
            break;
          }
          ready = std::max(ready, finish[j]);
        }
      }
      if (blocked) continue;
      const double start = std::max(ready, proc_free[tasks[i].proc_idx]);
      const auto key = std::make_tuple(start, tasks[i].model_idx, tasks[i].seq_in_model);
      if (best < 0 ||
          key < std::make_tuple(best_start, tasks[static_cast<std::size_t>(best)].model_idx,
                                tasks[static_cast<std::size_t>(best)].seq_in_model)) {
        best_start = start;
        best = static_cast<int>(i);
      }
    }
    const auto bi = static_cast<std::size_t>(best);
    finish[bi] = best_start + tasks[bi].solo_ms;
    proc_free[tasks[bi].proc_idx] = finish[bi];
    makespan = std::max(makespan, finish[bi]);
    ++done;
  }
  return makespan;
}

class DesInvariants : public ::testing::TestWithParam<int> {};

TEST_P(DesInvariants, BusyPlusIdleEqualsSpanPerProcessor) {
  const Soc soc = Soc::kirin990();
  Rng rng(9100 + GetParam());
  const Timeline t = simulate(soc, random_task_graph(rng, soc.num_processors()), {});
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    double busy = 0.0, first = 1e300, last = 0.0;
    for (const TaskRecord& r : t.tasks) {
      if (r.proc_idx != p) continue;
      busy += r.duration_ms();
      first = std::min(first, r.start_ms);
      last = std::max(last, r.end_ms);
    }
    if (last == 0.0) continue;  // processor unused
    EXPECT_NEAR(busy + t.proc_idle_ms(p), last - first, 1e-6);
  }
}

TEST_P(DesInvariants, ContentionFreeMatchesReferenceScheduler) {
  const Soc soc = Soc::kirin990();
  Rng rng(9200 + GetParam());
  const auto tasks = testing_util::without_intensity(
      random_task_graph(rng, soc.num_processors()));
  const Timeline t = simulate(soc, tasks);
  EXPECT_NEAR(t.makespan_ms(), reference_makespan(soc, tasks), 1e-6);
}

TEST_P(DesInvariants, WorkConservedContentionOff) {
  const Soc soc = Soc::kirin990();
  Rng rng(9300 + GetParam());
  const auto tasks = testing_util::without_intensity(
      random_task_graph(rng, soc.num_processors()));
  const Timeline t = simulate(soc, tasks);
  double solo_total = 0.0;
  for (const SimTask& task : tasks) solo_total += task.solo_ms;
  double executed = 0.0;
  for (const TaskRecord& r : t.tasks) executed += r.duration_ms();
  EXPECT_NEAR(executed, solo_total, 1e-6);
}

TEST_P(DesInvariants, ContentionOnlyStretchesNeverShrinks) {
  const Soc soc = Soc::kirin990();
  Rng rng(9400 + GetParam());
  const auto tasks = random_task_graph(rng, soc.num_processors());
  const Timeline with = simulate(soc, tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_GE(with.tasks[i].duration_ms(), tasks[i].solo_ms - 1e-6);
    EXPECT_LE(with.tasks[i].duration_ms(),
              tasks[i].solo_ms * ContentionModel::kMaxSlowdown + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DesInvariants, ::testing::Range(0, 20));

}  // namespace
}  // namespace h2p
