#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/graph_planner.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/pipeline_sim.h"
#include "sim/pipeline_sim_reference.h"
#include "sim/task_table.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace h2p {
namespace {

using testing_util::Fixture;
using testing_util::sim_task;

TEST(Sim, SingleTaskRunsSolo) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {sim_task(0, 0, 1, 10.0, 0.5, 0.5, 0.0)};
  const Timeline t = simulate(soc, tasks, {});
  ASSERT_EQ(t.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(t.tasks[0].start_ms, 0.0);
  EXPECT_NEAR(t.tasks[0].end_ms, 10.0, 1e-9);
}

TEST(Sim, ChainPrecedenceRespected) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {
      sim_task(0, 0, 0, 5.0, 0.0, 0.0, 0.0),
      sim_task(0, 1, 1, 7.0, 0.0, 0.0, 0.0),
      sim_task(0, 2, 2, 3.0, 0.0, 0.0, 0.0),
  };
  const Timeline t = simulate(soc, tasks, {});
  EXPECT_GE(t.tasks[1].start_ms, t.tasks[0].end_ms - 1e-9);
  EXPECT_GE(t.tasks[2].start_ms, t.tasks[1].end_ms - 1e-9);
}

TEST(Sim, ProcessorExclusivity) {
  const Soc soc = Soc::kirin990();
  // Two independent models on the same processor must serialize.
  std::vector<SimTask> tasks = {
      sim_task(0, 0, 1, 5.0, 0.0, 0.0, 0.0),
      sim_task(1, 0, 1, 5.0, 0.0, 0.0, 0.0),
  };
  const Timeline t = simulate(soc, tasks, {});
  const auto& a = t.tasks[0];
  const auto& b = t.tasks[1];
  EXPECT_TRUE(a.end_ms <= b.start_ms + 1e-9 || b.end_ms <= a.start_ms + 1e-9);
  EXPECT_NEAR(t.makespan_ms(), 10.0, 1e-9);
}

TEST(Sim, FifoOrderOnSharedProcessor) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {
      sim_task(1, 0, 1, 5.0, 0.0, 0.0, 0.0),  // model 1 listed first...
      sim_task(0, 0, 1, 5.0, 0.0, 0.0, 0.0),  // ...but model 0 must start first
  };
  const Timeline t = simulate(soc, tasks, {});
  EXPECT_LT(t.tasks[1].start_ms, t.tasks[0].start_ms);
}

TEST(Sim, ContentionStretchesCoRunningTasks) {
  const Soc soc = Soc::kirin990();
  const auto cpu_b = static_cast<std::size_t>(soc.find(ProcKind::kCpuBig));
  const auto gpu = static_cast<std::size_t>(soc.find(ProcKind::kGpu));
  std::vector<SimTask> tasks = {
      sim_task(0, 0, cpu_b, 10.0, 0.8, 0.8, 0.0),
      sim_task(1, 0, gpu, 10.0, 0.8, 0.8, 0.0),
  };
  const Timeline with = simulate(soc, tasks);
  const Timeline without = simulate(soc, testing_util::without_intensity(tasks));
  EXPECT_GT(with.makespan_ms(), without.makespan_ms());
  EXPECT_GT(with.total_contention_ms(), 0.0);
  EXPECT_DOUBLE_EQ(without.total_contention_ms(), 0.0);
}

TEST(Sim, NpuCoRunBarelySlows) {
  const Soc soc = Soc::kirin990();
  const auto cpu_b = static_cast<std::size_t>(soc.find(ProcKind::kCpuBig));
  const auto npu = static_cast<std::size_t>(soc.find(ProcKind::kNpu));
  std::vector<SimTask> tasks = {
      sim_task(0, 0, cpu_b, 10.0, 0.8, 0.8, 0.0),
      sim_task(1, 0, npu, 10.0, 0.8, 0.8, 0.0),
  };
  const Timeline t = simulate(soc, tasks);
  EXPECT_LT(t.makespan_ms(), 11.1);  // <11% stretch vs >20% for CPU-GPU
}

TEST(Sim, PartialOverlapIntegratedExactly) {
  const Soc soc = Soc::kirin990();
  const auto cpu_b = static_cast<std::size_t>(soc.find(ProcKind::kCpuBig));
  const auto gpu = static_cast<std::size_t>(soc.find(ProcKind::kGpu));
  // GPU task arrives at t=5: CPU task runs 5ms solo, then contended.
  std::vector<SimTask> tasks = {
      sim_task(0, 0, cpu_b, 10.0, 1.0, 1.0, 0.0),
      sim_task(1, 0, gpu, 100.0, 1.0, 1.0, 5.0),
  };
  const Timeline t = simulate(soc, tasks);
  const double gamma = Soc::coupling(ProcKind::kCpuBig, ProcKind::kGpu);
  // Remaining 5 solo-ms run at rate 1/(1+gamma): wall = 5 + 5*(1+gamma).
  EXPECT_NEAR(t.tasks[0].end_ms, 5.0 + 5.0 * (1.0 + gamma), 1e-6);
}

TEST(Sim, ArrivalsDelayStart) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {sim_task(0, 0, 1, 5.0, 0.0, 0.0, 42.0)};
  const Timeline t = simulate(soc, tasks, {});
  EXPECT_NEAR(t.tasks[0].start_ms, 42.0, 1e-9);
}

TEST(Sim, InvalidProcessorThrows) {
  const Soc soc = Soc::kirin990();
  std::vector<SimTask> tasks = {sim_task(0, 0, 99, 5.0, 0.0, 0.0, 0.0)};
  EXPECT_THROW(simulate(soc, tasks, {}), std::invalid_argument);
}

TEST(Sim, EmptyTaskListIsEmptyTimeline) {
  const Timeline t = simulate(Soc::kirin990(), std::vector<SimTask>{});
  EXPECT_TRUE(t.tasks.empty());
  EXPECT_DOUBLE_EQ(t.makespan_ms(), 0.0);
  const Timeline c = simulate(Soc::kirin990(), exec::CompiledPlan{});
  EXPECT_TRUE(c.tasks.empty());
  EXPECT_DOUBLE_EQ(c.makespan_ms(), 0.0);
}

TEST(Sim, PlanRoundTripRespectsInvariants) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const Timeline t = simulate_plan(report.plan, *fx.eval);

  // Every non-empty slice became exactly one completed task.
  std::size_t expected = 0;
  for (const ModelPlan& mp : report.plan.models) {
    for (const Slice& s : mp.slices) expected += !s.empty();
  }
  EXPECT_EQ(t.tasks.size(), expected);

  // Precedence within each model.
  for (const TaskRecord& a : t.tasks) {
    for (const TaskRecord& b : t.tasks) {
      if (a.model_idx == b.model_idx && a.seq_in_model + 1 == b.seq_in_model) {
        EXPECT_GE(b.start_ms, a.end_ms - 1e-6);
      }
    }
  }

  // Processor exclusivity.
  for (std::size_t p = 0; p < t.num_procs; ++p) {
    std::vector<const TaskRecord*> on_p;
    for (const TaskRecord& r : t.tasks) {
      if (r.proc_idx == p) on_p.push_back(&r);
    }
    for (std::size_t i = 0; i < on_p.size(); ++i) {
      for (std::size_t j = i + 1; j < on_p.size(); ++j) {
        const bool disjoint = on_p[i]->end_ms <= on_p[j]->start_ms + 1e-6 ||
                              on_p[j]->end_ms <= on_p[i]->start_ms + 1e-6;
        EXPECT_TRUE(disjoint);
      }
    }
  }
}

TEST(Sim, ContentionOffMatchesSoloSums) {
  Fixture fx({ModelId::kResNet50});
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const Timeline t = simulate(
      fx.soc, testing_util::without_intensity(exec::compile(report.plan, *fx.eval)));
  double solo_total = 0.0;
  for (std::size_t k = 0; k < report.plan.num_stages; ++k) {
    solo_total += fx.eval->stage_solo_ms(report.plan.models[0], k);
  }
  EXPECT_NEAR(t.makespan_ms(), solo_total, 1e-6);
}

// ---------------------------------------------------------------------------
// SoA TaskTable / SimScratch: bit-identity against the frozen AoS reference
// and determinism of scratch reuse.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact (bitwise) timeline equality — the SoA contract is bit-identity,
/// not tolerance-level agreement.
void expect_identical(const Timeline& a, const Timeline& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.num_procs, b.num_procs);
  EXPECT_EQ(a.num_models, b.num_models);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].model_idx, b.tasks[i].model_idx) << "task " << i;
    EXPECT_EQ(a.tasks[i].seq_in_model, b.tasks[i].seq_in_model) << "task " << i;
    EXPECT_EQ(a.tasks[i].proc_idx, b.tasks[i].proc_idx) << "task " << i;
    EXPECT_EQ(a.tasks[i].start_ms, b.tasks[i].start_ms) << "task " << i;
    EXPECT_EQ(a.tasks[i].end_ms, b.tasks[i].end_ms) << "task " << i;
    EXPECT_EQ(a.tasks[i].solo_ms, b.tasks[i].solo_ms) << "task " << i;
  }
}

std::vector<SimTask> random_chain_tasks(Rng& rng, std::size_t num_procs,
                                        bool with_alt) {
  const std::size_t num_models = 2 + rng.index(4);
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
      if (with_alt) {
        t.alt.resize(num_procs);
        for (std::size_t q = 0; q < num_procs; ++q) {
          t.alt[q] = SimTask::AltCost{rng.uniform(0.5, 30.0),
                                      rng.uniform(0.0, 1.0),
                                      rng.uniform(0.0, 1.0)};
        }
      }
      tasks.push_back(t);
    }
  }
  return tasks;
}

/// Fork/join DAG: per model a root, two parallel branches, a join.
std::vector<SimTask> dag_tasks(std::size_t num_procs) {
  std::vector<SimTask> tasks;
  for (std::size_t m = 0; m < 3; ++m) {
    const std::size_t base = tasks.size();
    SimTask root = sim_task(m, 0, (m + 0) % num_procs, 4.0 + m, 0.4, 0.5, 0.0);
    root.explicit_deps = true;
    SimTask left = sim_task(m, 1, (m + 1) % num_procs, 6.0, 0.6, 0.7, 0.0);
    left.explicit_deps = true;
    left.deps = {base};
    SimTask right = sim_task(m, 1, (m + 2) % num_procs, 5.0, 0.5, 0.6, 0.0);
    right.explicit_deps = true;
    right.deps = {base};
    SimTask join = sim_task(m, 2, (m + 3) % num_procs, 3.0, 0.3, 0.4, 0.0);
    join.explicit_deps = true;
    join.deps = {base + 1, base + 2};
    tasks.push_back(root);
    tasks.push_back(left);
    tasks.push_back(right);
    tasks.push_back(join);
  }
  return tasks;
}

TEST(TaskTable, SoAMatchesLegacyReferenceOnRandomGraphs) {
  const Soc soc = Soc::kirin990();
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(4200 + seed);
    const std::vector<SimTask> tasks =
        random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/false);
    for (const std::vector<SimTask>& set :
         {tasks, testing_util::without_intensity(tasks)}) {
      expect_identical(simulate(soc, set), sim::simulate_reference(soc, set));
    }
  }
}

TEST(TaskTable, SoAMatchesLegacyReferenceUnderFaults) {
  const Soc soc = Soc::kirin990();
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 1, 5.0, 12.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 2.0, 25.0, 0.5},
      FaultEvent{FaultKind::kDropout, 0, 8.0, kInf, 1.0},  // permanent
  });
  SimOptions opt;
  opt.faults = &faults;
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(5200 + seed);
    const std::vector<SimTask> tasks =
        random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/true);
    const Timeline soa = simulate(soc, tasks, opt);
    const Timeline legacy = sim::simulate_reference(soc, tasks, opt);
    expect_identical(soa, legacy);
  }
}

/// Hand-built sets for the bucketed implicit-chain rule (a task waits on
/// the first task of its model's previous distinct-seq group): implicit
/// models whose seqs start anywhere, skip values and repeat (tie groups),
/// now and then an explicit task inside such a model, explicit fork/join
/// models beside them, positive arrivals, and the whole list shuffled with
/// explicit deps remapped.  `ties` and `gaps` count what was drawn.
std::vector<SimTask> shuffled_mixed_tasks(Rng& rng, std::size_t num_procs,
                                          bool with_alt, std::size_t& ties,
                                          std::size_t& gaps) {
  std::vector<SimTask> tasks;
  auto add = [&](std::size_t m, std::size_t seq, bool explicit_deps,
                 std::vector<std::size_t> deps) {
    SimTask t;
    t.model_idx = m;
    t.seq_in_model = seq;
    t.proc_idx = rng.index(num_procs);
    t.solo_ms = rng.uniform(0.5, 12.0);
    t.sensitivity = rng.uniform(0.0, 1.0);
    t.intensity = rng.uniform(0.0, 1.0);
    t.arrival_ms = rng.chance(0.3) ? rng.uniform(0.0, 15.0) : 0.0;
    t.explicit_deps = explicit_deps;
    t.deps = std::move(deps);
    if (with_alt) {
      t.alt.resize(num_procs);
      for (SimTask::AltCost& a : t.alt) {
        a = {rng.uniform(0.5, 20.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
      }
    }
    tasks.push_back(std::move(t));
    return tasks.size() - 1;
  };
  const std::size_t num_models = 3 + rng.index(4);
  for (std::size_t m = 0; m < num_models; ++m) {
    if (rng.chance(0.3)) {
      const std::size_t root = add(m, 0, true, {});
      const std::size_t left = add(m, 1, true, {root});
      const std::size_t right = add(m, 1, true, {root});
      add(m, 2, true, {left, right});
      continue;
    }
    std::size_t seq = rng.index(3);
    const std::size_t groups = 1 + rng.index(4);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t width = rng.chance(0.4) ? 2 + rng.index(2) : 1;
      ties += width - 1;
      std::size_t last = 0;
      for (std::size_t w = 0; w < width; ++w) last = add(m, seq, false, {});
      if (rng.chance(0.2)) add(m, seq + 1, true, {last});
      const std::size_t step = 1 + rng.index(3);
      gaps += step > 1 ? 1 : 0;
      seq += step;
    }
  }
  std::vector<std::size_t> position(tasks.size());
  for (std::size_t i = 0; i < position.size(); ++i) position[i] = i;
  rng.shuffle(position);
  std::vector<SimTask> shuffled(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (std::size_t& d : tasks[i].deps) d = position[d];
    shuffled[position[i]] = std::move(tasks[i]);
  }
  return shuffled;
}

TEST(TaskTable, ShuffledImplicitChainsMatchReference) {
  const Soc soc = Soc::kirin990();
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 1, 4.0, 9.0, 1.0},
      FaultEvent{FaultKind::kDropout, 2, 6.0, kInf, 1.0},  // permanent
  });
  SimOptions faulted;
  faulted.faults = &faults;
  std::size_t ties = 0, gaps = 0, migrated = 0;
  for (int seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(8800 + seed);
    const std::vector<SimTask> tasks = shuffled_mixed_tasks(
        rng, soc.num_processors(), /*with_alt=*/true, ties, gaps);
    expect_identical(simulate(soc, tasks, {}),
                     sim::simulate_reference(soc, tasks, {}));
    const Timeline soa = simulate(soc, tasks, faulted);
    expect_identical(soa, sim::simulate_reference(soc, tasks, faulted));
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      migrated += soa.tasks[i].proc_idx != tasks[i].proc_idx ? 1 : 0;
    }
  }
  EXPECT_GT(ties, 20u);
  EXPECT_GT(gaps, 20u);
  EXPECT_GT(migrated, 20u);
}

TEST(TaskTable, FromPlanMatchesFromCompiled) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);

  sim::TaskTable direct;
  direct.build_from_plan(report.plan, *fx.eval);
  sim::TaskTable via_compiled;
  via_compiled.build_from_compiled(compiled, fx.eval->soc().num_processors());

  ASSERT_EQ(direct.size(), via_compiled.size());
  EXPECT_EQ(direct.model_idx, via_compiled.model_idx);
  EXPECT_EQ(direct.seq_in_model, via_compiled.seq_in_model);
  EXPECT_EQ(direct.proc_idx, via_compiled.proc_idx);
  EXPECT_EQ(direct.solo_ms, via_compiled.solo_ms);        // bitwise doubles
  EXPECT_EQ(direct.sensitivity, via_compiled.sensitivity);
  EXPECT_EQ(direct.intensity, via_compiled.intensity);
  EXPECT_EQ(direct.dep_offsets, via_compiled.dep_offsets);
  EXPECT_EQ(direct.dep_edges, via_compiled.dep_edges);
  EXPECT_EQ(direct.dispatch_order, via_compiled.dispatch_order);
  EXPECT_EQ(direct.dispatch_rank, via_compiled.dispatch_rank);
}

TEST(TaskTable, PlanMakespanMatchesSimulatePlan) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const double fast = simulate_plan_makespan(report.plan, *fx.eval);
  const double reference = simulate_plan(report.plan, *fx.eval).makespan_ms();
  EXPECT_EQ(fast, reference);  // bitwise
}

TEST(TaskTable, UnknownDependencyThrows) {
  const Soc soc = Soc::kirin990();
  SimTask t = sim_task(0, 0, 1, 5.0, 0.0, 0.0, 0.0);
  t.explicit_deps = true;
  t.deps = {7};  // out of range
  const std::vector<SimTask> tasks{t};
  EXPECT_THROW(simulate(soc, tasks, {}), std::invalid_argument);
}

/// `soc` without processor `drop`, and the map from its stages back to the
/// full processor indices — the view the online path plans degraded on.
std::pair<Soc, std::vector<std::size_t>> without_processor(const Soc& soc,
                                                           std::size_t drop) {
  std::vector<Processor> procs;
  std::vector<std::size_t> kept;
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    if (p == drop) continue;
    procs.push_back(soc.processor(p));
    kept.push_back(p);
  }
  return {Soc(soc.name(), std::move(procs), soc.bus_bw_gbps(),
              soc.mem_capacity_bytes(), soc.available_bytes(), soc.mem_states()),
          std::move(kept)};
}

TEST(TaskTable, AppendCompiledMatchesAoSLowering) {
  // Windows appended into one table must equal the AoS list a caller would
  // hand-build from the same plans: slots and deps offset past the earlier
  // windows, stages mapped to physical processors, roots released at their
  // slot's arrival, fallback costs spread over every processor with +inf
  // on removed ones and on rows without a fallback table.
  const Soc soc = Soc::kirin990();
  const std::size_t P = soc.num_processors();
  const auto [view_soc, kept] = without_processor(soc, 1);
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 6.0, kInf, 1.0}});
  const std::vector<std::vector<ModelId>> chain_windows = {
      testing_util::mixed_four(),
      {ModelId::kAlexNet, ModelId::kGoogLeNet, ModelId::kSqueezeNet},
      testing_util::mixed_six()};
  const std::vector<GraphModel> graphs = {zoo_graph(GraphId::kHybridAttnCell),
                                          zoo_graph(GraphId::kInceptionCell),
                                          zoo_graph(GraphId::kTwoHeadNeck)};
  Rng rng(3600);
  std::size_t cases = 0;
  for (const bool degraded : {false, true}) {
    const Soc& plan_soc = degraded ? view_soc : soc;
    const std::vector<std::size_t> proc_map =
        degraded ? kept : std::vector<std::size_t>{};
    const std::size_t stages = plan_soc.num_processors();
    // Three chain windows and three DAG windows, each planned once.
    std::vector<exec::CompiledPlan> chain_plans;
    for (const std::vector<ModelId>& ids : chain_windows) {
      Fixture fx(ids, plan_soc);
      chain_plans.push_back(
          exec::compile(Hetero2PipePlanner(*fx.eval).plan().plan, *fx.eval));
    }
    std::vector<exec::CompiledPlan> dag_plans;
    bool forked = false;
    for (const GraphModel& g : graphs) {
      dag_plans.push_back(GraphPlanner(plan_soc, {&g}).plan().compiled);
      for (const exec::ScheduledSlice& sl : dag_plans.back().slices) {
        forked |= sl.deps.size() > 1;
      }
    }
    if (!degraded) {
      EXPECT_TRUE(forked);
    }
    for (std::vector<exec::CompiledPlan>* plans : {&chain_plans, &dag_plans}) {
      // Fallback patterns: none, every window, and every other window
      // (the stride appears mid-table and rows before it re-stride).
      for (int pattern = 0; pattern < 3; ++pattern) {
        for (const std::size_t depth : {2u, 3u}) {
          SCOPED_TRACE(testing::Message()
                       << "degraded " << degraded << " dag "
                       << (plans == &dag_plans) << " pattern " << pattern
                       << " depth " << depth);
          sim::TaskTable table;
          std::vector<SimTask> aos;
          std::size_t slot_base = 0;
          bool every_fallback = true;
          for (std::size_t w = 0; w < depth; ++w) {
            exec::CompiledPlan cp = (*plans)[w];
            const bool with_fallback =
                pattern == 1 || (pattern == 2 && w % 2 == 1);
            every_fallback &= with_fallback;
            if (with_fallback) {
              cp.fallback_procs = stages;
              cp.fallback.resize(cp.slices.size() * stages);
              for (exec::CompiledPlan::FallbackCost& fc : cp.fallback) {
                fc = {rng.uniform(0.5, 30.0), rng.uniform(0.0, 1.0),
                      rng.uniform(0.0, 1.0)};
              }
            }
            std::vector<double> roots(cp.num_models);
            for (double& r : roots) {
              r = rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 40.0);
            }
            table.append_compiled(cp, roots, proc_map, P);

            // The same window, hand-remapped.
            const std::size_t row_base = aos.size();
            for (SimTask t : tasks_from_compiled(cp)) {
              const std::size_t slot = t.model_idx;
              t.model_idx += slot_base;
              if (degraded) t.proc_idx = kept[t.proc_idx];
              if (t.deps.empty()) t.arrival_ms = roots[slot];
              for (std::size_t& d : t.deps) d += row_base;
              if (with_fallback) {
                std::vector<SimTask::AltCost> alt(P, {kInf, 0.0, 0.0});
                for (std::size_t q = 0; q < stages; ++q) {
                  alt[degraded ? kept[q] : q] = t.alt[q];
                }
                t.alt = std::move(alt);
              }
              aos.push_back(std::move(t));
            }
            slot_base += cp.num_models;
          }
          table.finish(P);
          sim::TaskTable expected;
          expected.build_from_tasks(aos, P);

          ASSERT_EQ(table.size(), expected.size());
          EXPECT_EQ(table.model_idx, expected.model_idx);
          EXPECT_EQ(table.seq_in_model, expected.seq_in_model);
          EXPECT_EQ(table.proc_idx, expected.proc_idx);
          EXPECT_EQ(table.solo_ms, expected.solo_ms);  // bitwise doubles
          EXPECT_EQ(table.sensitivity, expected.sensitivity);
          EXPECT_EQ(table.intensity, expected.intensity);
          EXPECT_EQ(table.arrival_ms, expected.arrival_ms);
          EXPECT_EQ(table.dep_offsets, expected.dep_offsets);
          EXPECT_EQ(table.dep_edges, expected.dep_edges);
          EXPECT_EQ(table.alt_procs, expected.alt_procs);
          EXPECT_EQ(table.alt_solo_ms, expected.alt_solo_ms);
          EXPECT_EQ(table.alt_sensitivity, expected.alt_sensitivity);
          EXPECT_EQ(table.alt_intensity, expected.alt_intensity);
          EXPECT_EQ(table.num_models, expected.num_models);
          EXPECT_EQ(table.num_procs, expected.num_procs);
          EXPECT_EQ(table.max_proc_idx, expected.max_proc_idx);
          EXPECT_EQ(table.dispatch_order, expected.dispatch_order);
          EXPECT_EQ(table.dispatch_rank, expected.dispatch_rank);
          EXPECT_EQ(table.arrival_order, expected.arrival_order);
          EXPECT_EQ(table.succ_offsets, expected.succ_offsets);
          EXPECT_EQ(table.succ_edges, expected.succ_edges);

          // The DES on the appended table equals the reference oracle on
          // the AoS list, healthy and — where every row can migrate —
          // under a permanent drop-out.
          std::vector<SimOptions> runs(1);
          if (every_fallback) runs.push_back(SimOptions{&faults});
          for (const SimOptions& opt : runs) {
            sim::SimScratch scratch;
            Timeline out;
            simulate(soc, table, scratch, out, opt);
            expect_identical(out, sim::simulate_reference(soc, aos, opt));
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 24u);
}

// ---------------------------------------------------------------------------
// Stream-shaped tables: what run_online hands the DES for a whole stream —
// hundreds of models released over time, most of them waiting on a later
// arrival while earlier windows run.

/// `num_models` requests released in windows of four.  Within and across
/// windows the arrivals are out of model order; every fifth model ties the
/// arrival of the model three before it exactly; model 1 arrives 0.4 ns
/// after t = 0.  With `dag_every` > 0 every such model is a fork/join DAG
/// (explicit deps) whose join also carries a later arrival of its own.
std::vector<SimTask> stream_tasks(Rng& rng, std::size_t num_procs,
                                  std::size_t num_models, std::size_t dag_every,
                                  bool with_alt) {
  std::vector<SimTask> tasks;
  std::vector<double> arrival(num_models, 0.0);
  // Appends one task and draws its contention and fallback costs.
  auto add = [&](std::size_t m, std::size_t seq, std::size_t proc, double solo,
                 double arrival_ms, bool explicit_deps,
                 std::vector<std::size_t> deps) {
    SimTask t;
    t.model_idx = m;
    t.seq_in_model = seq;
    t.proc_idx = proc;
    t.solo_ms = solo;
    t.arrival_ms = arrival_ms;
    t.explicit_deps = explicit_deps;
    t.deps = std::move(deps);
    t.sensitivity = rng.uniform(0.0, 1.0);
    t.intensity = rng.uniform(0.0, 1.0);
    if (with_alt) {
      t.alt.resize(num_procs);
      for (std::size_t q = 0; q < num_procs; ++q) {
        t.alt[q] = SimTask::AltCost{rng.uniform(0.5, 12.0),
                                    rng.uniform(0.0, 1.0),
                                    rng.uniform(0.0, 1.0)};
      }
    }
    tasks.push_back(std::move(t));
    return tasks.size() - 1;
  };
  for (std::size_t m = 0; m < num_models; ++m) {
    arrival[m] = 12.0 * static_cast<double>(m / 4) + rng.uniform(0.0, 20.0);
    if (m % 5 == 4) arrival[m] = arrival[m - 3];  // exact tie
    if (m == 1) arrival[m] = 4e-10;               // within eps of t = 0
    const std::size_t proc0 = rng.index(num_procs);
    if (dag_every > 0 && m % dag_every == 0) {
      const double root_solo = rng.uniform(0.5, 4.0);
      const std::size_t root = add(m, 0, proc0, root_solo, arrival[m], true, {});
      const std::size_t left_proc = rng.index(num_procs);
      const double left_solo = rng.uniform(0.5, 6.0);
      const std::size_t right_proc = rng.index(num_procs);
      const double right_solo = rng.uniform(0.5, 6.0);
      const std::size_t left = add(m, 1, left_proc, left_solo, 0.0, true, {root});
      const std::size_t right =
          add(m, 1, right_proc, right_solo, 0.0, true, {root});
      const std::size_t join_proc = rng.index(num_procs);
      const double join_solo = rng.uniform(0.5, 3.0);
      const double join_arrival = arrival[m] + rng.uniform(0.0, 8.0);
      add(m, 2, join_proc, join_solo, join_arrival, true, {left, right});
      continue;
    }
    const std::size_t chain = 3 + rng.index(4);
    for (std::size_t seq = 0; seq < chain; ++seq) {
      const std::size_t proc = seq == 0 ? proc0 : rng.index(num_procs);
      const double solo = rng.uniform(0.5, 6.0);
      add(m, seq, proc, solo, seq == 0 ? arrival[m] : 0.0, false, {});
    }
  }
  return tasks;
}

/// Moves one late model's arrival to 0.5 ns after a retirement the
/// unmodified stream makes mid-run, and another's to that retirement's
/// exact time.  Retirements before the moved arrivals are unaffected, so
/// both land within eps of a real DES event.
void pin_arrivals_to_an_event(const Soc& soc, std::vector<SimTask>& tasks,
                              const SimOptions& options) {
  const Timeline probe = sim::simulate_reference(soc, tasks, options);
  double last_arrival = 0.0;
  for (const SimTask& t : tasks) last_arrival = std::max(last_arrival, t.arrival_ms);
  double event = 0.0;  // the retirement nearest the middle of the stream
  for (const TaskRecord& r : probe.tasks) {
    if (std::fabs(r.end_ms - last_arrival / 2) <
        std::fabs(event - last_arrival / 2)) {
      event = r.end_ms;
    }
  }
  std::size_t moved = 0;
  for (SimTask& t : tasks) {
    if (moved < 2 && t.seq_in_model == 0 && t.arrival_ms > event + 1.0) {
      t.arrival_ms = moved == 0 ? event + 5e-10 : event;
      ++moved;
    }
  }
  ASSERT_EQ(moved, 2u);
}

TEST(StreamOracle, ChainStreamMatchesReference) {
  const Soc soc = Soc::kirin990();
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(7100 + seed);
    std::vector<SimTask> tasks = stream_tasks(rng, soc.num_processors(), 140,
                                              /*dag_every=*/0, false);
    ASSERT_GE(tasks.size(), 500u);
    pin_arrivals_to_an_event(soc, tasks, {});
    for (const std::vector<SimTask>& set :
         {tasks, testing_util::without_intensity(tasks)}) {
      expect_identical(simulate(soc, set), sim::simulate_reference(soc, set));
    }
  }
}

TEST(StreamOracle, DagStreamWithArrivalsMatchesReference) {
  const Soc soc = Soc::snapdragon870();
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(7200 + seed);
    std::vector<SimTask> tasks = stream_tasks(rng, soc.num_processors(), 140,
                                              /*dag_every=*/3, false);
    ASSERT_GE(tasks.size(), 500u);
    pin_arrivals_to_an_event(soc, tasks, {});
    expect_identical(simulate(soc, tasks, {}),
                     sim::simulate_reference(soc, tasks, {}));
  }
}

TEST(StreamOracle, FaultedStreamMigratesAndMatchesReference) {
  const Soc soc = Soc::kirin990();
  // A transient NPU-side drop-out and a slowdown early on, then processor 0
  // drops out for good mid-stream while later windows are still queued:
  // its ready tasks move into the other processors' ready sets.
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 1, 60.0, 95.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 40.0, 160.0, 0.5},
      FaultEvent{FaultKind::kDropout, 0, 210.0, kInf, 1.0},
  });
  SimOptions opt;
  opt.faults = &faults;
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(7300 + seed);
    std::vector<SimTask> tasks = stream_tasks(rng, soc.num_processors(), 120,
                                              /*dag_every=*/4, true);
    ASSERT_GE(tasks.size(), 500u);
    pin_arrivals_to_an_event(soc, tasks, opt);
    const Timeline soa = simulate(soc, tasks, opt);
    expect_identical(soa, sim::simulate_reference(soc, tasks, opt));
    std::size_t migrated = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (soa.tasks[i].proc_idx != tasks[i].proc_idx) {
        ++migrated;
        EXPECT_EQ(tasks[i].proc_idx, 0u);
        EXPECT_GE(soa.tasks[i].start_ms, 210.0 - 1e-9);
      }
    }
    EXPECT_GT(migrated, 20u);
  }
}

TEST(DesComplexity, DispatchProbesStayLinearInStreamLength) {
  const Soc soc = Soc::kirin990();
  Rng rng(7400);
  const std::vector<SimTask> tasks = stream_tasks(rng, soc.num_processors(),
                                                  900, /*dag_every=*/0, false);
  ASSERT_GE(tasks.size(), 4000u);
  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());
  sim::SimScratch scratch;
  Timeline out;

  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& probes = reg.counter("des.dispatch_probes");
  const std::uint64_t before = probes.value();
  simulate(soc, table, scratch, out, {});
  const std::uint64_t examined = probes.value() - before;
  reg.set_enabled(was_enabled);

  EXPECT_GT(examined, 0u);
  EXPECT_LE(examined, 4 * tasks.size());
}

TEST(DesComplexity, FaultQueriesStayLinearInEventsAndSegments) {
  // A faulted stream: transient and permanent drop-outs, slowdowns and
  // bus degrades over the whole arrival span.  The fault cursor only moves
  // forward, so its work is one step per DES event plus one per segment
  // crossed.  A DES event retires a task, reaches an arrival or reaches a
  // fault edge.
  const Soc soc = Soc::kirin990();
  Rng rng(7500);
  const std::vector<SimTask> tasks = stream_tasks(rng, soc.num_processors(),
                                                  900, /*dag_every=*/0, true);
  ASSERT_GE(tasks.size(), 4000u);
  FaultSamplerOptions fo;
  fo.horizon_ms = 2500.0;
  fo.mean_gap_ms = 150.0;
  fo.permanent_prob = 0.0;
  fo.mean_weather_gap_ms = 200.0;
  const FaultScript sampled = FaultScript::sample(soc, 11, fo);
  // Processor 0 drops out for good mid-stream.
  std::vector<FaultEvent> script = sampled.events();
  script.push_back(FaultEvent{FaultKind::kDropout, 0, 1300.0, kInf, 1.0});
  const FaultScript faults(std::move(script), sampled.weather());
  std::size_t transient = 0, permanent = 0, bus = 0;
  for (const FaultEvent& e : faults.events()) {
    if (e.kind == FaultKind::kDropout) ++(std::isinf(e.end_ms) ? permanent : transient);
    if (e.kind == FaultKind::kBusDegrade) ++bus;
  }
  ASSERT_GT(transient, 0u);
  ASSERT_GT(permanent, 0u);
  ASSERT_GT(bus, 0u);

  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());
  sim::SimScratch scratch;
  Timeline out;
  SimOptions opt;
  opt.faults = &faults;

  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& steps = reg.counter("des.fault_segment_steps");
  obs::Counter& migrations = reg.counter("des.migrations");
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t migrations_before = migrations.value();
  simulate(soc, table, scratch, out, opt);
  const std::uint64_t stepped = steps.value() - steps_before;
  const std::uint64_t migrated = migrations.value() - migrations_before;
  reg.set_enabled(was_enabled);

  std::size_t arrivals = 0;
  for (const SimTask& t : tasks) arrivals += t.arrival_ms > 0.0 ? 1 : 0;
  const std::size_t events = tasks.size() + arrivals + faults.edges().size();
  // Cut points are edge - eps, plus one for a permanent end: at most
  // edges + 1 cuts, so edges + 2 segments.
  const std::size_t segments = faults.edges().size() + 2;
  EXPECT_GT(migrated, 0u);
  EXPECT_GT(stepped, 0u);
  EXPECT_LE(stepped, events + segments);
  EXPECT_FALSE(verify_timeline_against_faults(out, faults, &table).has_value());
}

TEST(SimScratchReuse, ChainRunsBitIdenticalToFreshScratch) {
  const Soc soc = Soc::kirin990();
  Rng rng(6200);
  const std::vector<SimTask> tasks =
      random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/false);
  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());

  sim::SimScratch reused;
  Timeline first, second, fresh_out;
  simulate(soc, table, reused, first, {});
  simulate(soc, table, reused, second, {});  // same scratch, same timeline
  sim::SimScratch fresh;
  simulate(soc, table, fresh, fresh_out, {});
  expect_identical(first, second);
  expect_identical(first, fresh_out);
}

TEST(SimScratchReuse, AcrossFaultedAndUnfaultedRuns) {
  const Soc soc = Soc::kirin990();
  Rng rng(6300);
  const std::vector<SimTask> tasks =
      random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/true);
  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 2, 3.0, kInf, 1.0},  // forces migration
      FaultEvent{FaultKind::kSlowdown, 1, 1.0, 20.0, 0.5},
  });
  SimOptions faulted;
  faulted.faults = &faults;

  // Interleave healthy / faulted / healthy on ONE scratch: migration mutates
  // the scratch copies, so a later healthy run only stays bit-identical if
  // prepare() fully re-initializes them.
  sim::SimScratch reused;
  Timeline healthy1, faulted1, healthy2, faulted2;
  simulate(soc, table, reused, healthy1, {});
  simulate(soc, table, reused, faulted1, faulted);
  simulate(soc, table, reused, healthy2, {});
  simulate(soc, table, reused, faulted2, faulted);

  sim::SimScratch fresh_a, fresh_b;
  Timeline fresh_healthy, fresh_faulted;
  simulate(soc, table, fresh_a, fresh_healthy, {});
  simulate(soc, table, fresh_b, fresh_faulted, faulted);

  expect_identical(healthy1, fresh_healthy);
  expect_identical(healthy2, fresh_healthy);
  expect_identical(faulted1, fresh_faulted);
  expect_identical(faulted2, fresh_faulted);
}

TEST(SimScratchReuse, AcrossChainAndDagTables) {
  const Soc soc = Soc::kirin990();
  Rng rng(6400);
  const std::vector<SimTask> chain =
      random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/false);
  const std::vector<SimTask> dag = dag_tasks(soc.num_processors());
  sim::TaskTable chain_table, dag_table;
  chain_table.build_from_tasks(chain, soc.num_processors());
  dag_table.build_from_tasks(dag, soc.num_processors());

  // One scratch alternating between differently-shaped tables.
  sim::SimScratch reused;
  Timeline chain1, dag1, chain2, dag2;
  simulate(soc, chain_table, reused, chain1, {});
  simulate(soc, dag_table, reused, dag1, {});
  simulate(soc, chain_table, reused, chain2, {});
  simulate(soc, dag_table, reused, dag2, {});

  sim::SimScratch fresh_a, fresh_b;
  Timeline fresh_chain, fresh_dag;
  simulate(soc, chain_table, fresh_a, fresh_chain, {});
  simulate(soc, dag_table, fresh_b, fresh_dag, {});

  expect_identical(chain1, fresh_chain);
  expect_identical(chain2, fresh_chain);
  expect_identical(dag1, fresh_dag);
  expect_identical(dag2, fresh_dag);
  // DAG semantics sanity: the join starts only after both branches.
  for (std::size_t m = 0; m < 3; ++m) {
    const TaskRecord& left = dag1.tasks[m * 4 + 1];
    const TaskRecord& right = dag1.tasks[m * 4 + 2];
    const TaskRecord& join = dag1.tasks[m * 4 + 3];
    EXPECT_GE(join.start_ms, std::max(left.end_ms, right.end_ms) - 1e-9);
  }
}

TEST(SimScratchReuse, ArenaStopsGrowingAfterWarmup) {
  const Soc soc = Soc::kirin990();
  Rng rng(6500);
  const std::vector<SimTask> tasks =
      random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/false);
  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());
  sim::SimScratch scratch;
  Timeline out;
  simulate(soc, table, scratch, out, {});
  const std::size_t warm_bytes = scratch.bytes_reserved();
  EXPECT_GT(warm_bytes, 0u);
  for (int i = 0; i < 8; ++i) simulate(soc, table, scratch, out, {});
  EXPECT_EQ(scratch.bytes_reserved(), warm_bytes);
}

}  // namespace
}  // namespace h2p
