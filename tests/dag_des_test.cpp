#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/graph_planner.h"
#include "models/model_zoo.h"
#include "sim/fault_injector.h"
#include "sim/pipeline_sim.h"
#include "soc/soc.h"

namespace h2p {
namespace {

SimTask task(std::size_t model, std::size_t seq, std::size_t proc,
             double solo_ms, std::vector<std::size_t> deps) {
  SimTask t;
  t.model_idx = model;
  t.seq_in_model = seq;
  t.proc_idx = proc;
  t.solo_ms = solo_ms;
  t.explicit_deps = true;
  t.deps = std::move(deps);
  return t;
}

/// root(p0) -> {branch_a(p1), branch_b(p2)} -> join(p0): the canonical
/// diamond, zero intensity so the arithmetic is exact.
std::vector<SimTask> diamond(double a_ms = 4.0, double b_ms = 10.0) {
  std::vector<SimTask> tasks;
  tasks.push_back(task(0, 0, 0, 2.0, {}));
  tasks.push_back(task(0, 1, 1, a_ms, {0}));
  tasks.push_back(task(0, 1, 2, b_ms, {0}));
  tasks.push_back(task(0, 2, 0, 3.0, {1, 2}));
  return tasks;
}

// ---- Edge readiness in the DES --------------------------------------------

TEST(DagDes, NoTaskStartsBeforeAllPredecessorsRetire) {
  const Soc soc = Soc::kirin990();
  const std::vector<SimTask> tasks = diamond();
  const Timeline tl = simulate(soc, tasks);
  ASSERT_EQ(tl.tasks.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const std::size_t d : tasks[i].deps) {
      EXPECT_GE(tl.tasks[i].start_ms, tl.tasks[d].end_ms - 1e-12)
          << "task " << i << " started before dep " << d;
    }
  }
}

TEST(DagDes, ForkBranchesOverlapOnDistinctProcessors) {
  const Soc soc = Soc::kirin990();
  const Timeline tl = simulate(soc, diamond());
  // Both branches released together at the root's end and run concurrently.
  EXPECT_DOUBLE_EQ(tl.tasks[1].start_ms, tl.tasks[0].end_ms);
  EXPECT_DOUBLE_EQ(tl.tasks[2].start_ms, tl.tasks[0].end_ms);
  EXPECT_LT(tl.tasks[1].start_ms, tl.tasks[2].end_ms);
  EXPECT_LT(tl.tasks[2].start_ms, tl.tasks[1].end_ms);
  // The join waits for the slow branch, not just the first.
  EXPECT_DOUBLE_EQ(tl.tasks[3].start_ms, tl.tasks[2].end_ms);
  EXPECT_DOUBLE_EQ(tl.makespan_ms(), 2.0 + 10.0 + 3.0);
}

TEST(DagDes, JoinWaitsForBranchFrozenByTransientDropout) {
  const Soc soc = Soc::kirin990();
  // Branch b (proc 2, 10 ms, starts at 2) freezes inside [5, 20) and
  // resumes at recovery: 3 ms done pre-freeze, 7 ms remain -> ends at 27.
  const FaultScript script({FaultEvent{FaultKind::kDropout, 2, 5.0, 20.0}});
  const Timeline tl = simulate(soc, diamond(), {&script});
  EXPECT_NEAR(tl.tasks[2].end_ms, 27.0, 1e-9);
  // The fast branch finished long ago; the join still waits for the frozen
  // one — edge readiness holds under faults.
  EXPECT_NEAR(tl.tasks[1].end_ms, 6.0, 1e-9);
  EXPECT_GE(tl.tasks[3].start_ms, tl.tasks[2].end_ms - 1e-9);
}

TEST(DagDes, MigratedBranchStillGatesTheJoin) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = diamond();
  // Give every task a fallback table so permanent drop-out can migrate it:
  // proc 3 is the only legal alternative, at 1.5x cost.
  for (SimTask& t : tasks) {
    t.alt.assign(soc.num_processors(), SimTask::AltCost{
        std::numeric_limits<double>::infinity(), 0.0, 0.0});
    t.alt[3] = SimTask::AltCost{t.solo_ms * 1.5, t.sensitivity, t.intensity};
  }
  const FaultScript script({FaultEvent{
      FaultKind::kDropout, 2, 5.0, std::numeric_limits<double>::infinity()}});
  const Timeline tl = simulate(soc, tasks, {&script});
  // Branch b restarted on the fallback processor...
  EXPECT_EQ(tl.tasks[2].proc_idx, 3u);
  // ...and the join still ran strictly after BOTH branches.
  EXPECT_GE(tl.tasks[3].start_ms, tl.tasks[2].end_ms - 1e-9);
  EXPECT_GE(tl.tasks[3].start_ms, tl.tasks[1].end_ms - 1e-9);
}

TEST(DagDes, ExplicitChainMatchesImplicitChainExactly) {
  const Soc soc = Soc::kirin990();
  // The same 2-model pipeline expressed both ways.
  std::vector<SimTask> implicit;
  std::vector<SimTask> explicit_tasks;
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t s = 0; s < 3; ++s) {
      SimTask t;
      t.model_idx = m;
      t.seq_in_model = s;
      t.proc_idx = s;  // stage s -> proc s
      t.solo_ms = 2.0 + static_cast<double>(m) + static_cast<double>(s);
      implicit.push_back(t);
      const std::size_t idx = explicit_tasks.size();
      t.explicit_deps = true;
      if (s > 0) t.deps = {idx - 1};
      explicit_tasks.push_back(t);
    }
  }
  const Timeline a = simulate(soc, implicit);
  const Timeline b = simulate(soc, explicit_tasks);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].start_ms, b.tasks[i].start_ms) << i;
    EXPECT_EQ(a.tasks[i].end_ms, b.tasks[i].end_ms) << i;
  }
  EXPECT_EQ(a.makespan_ms(), b.makespan_ms());
}

TEST(DagDes, OutOfRangeDepsRejected) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {task(0, 0, 0, 1.0, {5})};
  EXPECT_THROW(simulate(soc, tasks), std::invalid_argument);
}

TEST(DagDes, CompiledDagPlanSatisfiesReadinessEverywhere) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs{zoo_graph(GraphId::kHybridAttnCell)};
  std::vector<const GraphModel*> ptrs{&graphs[0]};
  const GraphPlannerReport rep = GraphPlanner(soc, ptrs).plan();
  ASSERT_TRUE(rep.dag_accepted);
  const std::vector<SimTask> tasks = tasks_from_compiled(rep.compiled);
  const Timeline tl = simulate(soc, tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const std::size_t d : tasks[i].deps) {
      EXPECT_GE(tl.tasks[i].start_ms, tl.tasks[d].end_ms - 1e-12);
    }
  }
}

// ---- Queueing (multi-request) respects explicit roots ---------------------

TEST(DagDes, ReadinessHoldsUnderTransientFaultOnDagPlan) {
  const Soc soc = Soc::kirin990();
  std::vector<GraphModel> graphs{zoo_graph(GraphId::kHybridAttnCell)};
  std::vector<const GraphModel*> ptrs{&graphs[0]};
  const GraphPlannerReport rep = GraphPlanner(soc, ptrs).plan();
  ASSERT_TRUE(rep.dag_accepted);
  const std::vector<SimTask> tasks = tasks_from_compiled(rep.compiled);
  // Freeze every processor once, staggered windows.
  std::vector<FaultEvent> events;
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    events.push_back(FaultEvent{FaultKind::kDropout, p,
                                2.0 + 3.0 * static_cast<double>(p),
                                5.0 + 3.0 * static_cast<double>(p)});
  }
  const FaultScript script(std::move(events));
  const Timeline tl = simulate(soc, tasks, {&script});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const std::size_t d : tasks[i].deps) {
      EXPECT_GE(tl.tasks[i].start_ms, tl.tasks[d].end_ms - 1e-12);
    }
  }
}

}  // namespace
}  // namespace h2p
