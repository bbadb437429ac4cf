#include "sim/queueing.h"

#include <algorithm>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"

namespace h2p {

QueueStats serial_queueing(const StaticEvaluator& eval, std::size_t proc_idx,
                           const std::vector<double>& arrival_ms) {
  QueueStats stats;
  const std::size_t m = eval.num_models();
  stats.completion_ms.resize(m, 0.0);
  stats.queueing_ms.resize(m, 0.0);
  double busy_until = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double arrive = i < arrival_ms.size() ? arrival_ms[i] : 0.0;
    const double start = std::max(arrive, busy_until);
    const Model& model = eval.model(i);
    const double service =
        eval.table(i).exec_ms(proc_idx, 0, model.num_layers() - 1);
    busy_until = start + service;
    stats.queueing_ms[i] = start - arrive;
    stats.completion_ms[i] = busy_until - arrive;
  }
  stats.makespan_ms = busy_until;
  return stats;
}

QueueStats pipelined_queueing(const StaticEvaluator& eval,
                              const std::vector<double>& arrival_ms) {
  QueueStats stats;
  const std::size_t m = eval.num_models();

  Hetero2PipePlanner planner(eval);
  const PlannerReport report = planner.plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, eval);
  // Release each model's root tasks at its arrival time (a DAG plan may
  // have several roots; a chain has exactly its seq-0 task).
  std::vector<double> root_arrival(compiled.num_models, 0.0);
  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    const std::size_t original = compiled.original_index[slot];
    if (original < arrival_ms.size()) root_arrival[slot] = arrival_ms[original];
  }
  sim::TaskTable table;
  table.append_compiled(compiled, root_arrival);
  table.finish(eval.soc().num_processors());
  const Timeline timeline = simulate(eval.soc(), table);
  stats.completion_ms.resize(m, 0.0);
  stats.queueing_ms.resize(m, 0.0);
  // One pass each for finishes and first starts (the last seq-0 task of a
  // slot in timeline order, the makespan when it has none).
  const std::vector<double> finish = timeline.model_finish_times();
  std::vector<double> first_start(finish.size(), timeline.makespan_ms());
  for (const TaskRecord& t : timeline.tasks) {
    if (t.seq_in_model == 0) first_start[t.model_idx] = t.start_ms;
  }
  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    const std::size_t original = compiled.original_index[slot];
    const double arrive = original < arrival_ms.size() ? arrival_ms[original] : 0.0;
    const double slot_finish = slot < finish.size() ? finish[slot] : 0.0;
    const double slot_start =
        slot < first_start.size() ? first_start[slot] : timeline.makespan_ms();
    stats.completion_ms[original] = slot_finish - arrive;
    stats.queueing_ms[original] = std::max(0.0, slot_start - arrive);
  }
  stats.makespan_ms = timeline.makespan_ms();
  return stats;
}

}  // namespace h2p
