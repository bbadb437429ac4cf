// Planner micro-benchmarks (google-benchmark): verifies the complexity
// claims of Sec. V — O(nK) horizontal DP, O(|M|^3) Kuhn-Munkres, and the
// end-to-end planner cost O(|M|(nK + n + K) + |M|^3 |H|) — and tracks the
// cold-path planner's wall-clock and plans/sec across benchmark threads.
//
// Usage:
//   bench_planner_micro [google-benchmark flags] [--json [path]]
//
// `--json` additionally writes the full result set as JSON (default path
// BENCH_planner.json in the current directory) so CI and future PRs keep a
// perf trajectory.  Run it from the repo root to refresh the checked-in
// snapshot:
//   ./build/bench/bench_planner_micro --benchmark_min_time=0.2 --json
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_planner.h"
#include "core/lap.h"
#include "core/partition.h"
#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "exec/plan_cache.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/online.h"
#include "sim/pipeline_sim.h"
#include "sim/pipeline_sim_reference.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

using namespace h2p;

namespace {

// ---- horizontal DP ----------------------------------------------------------

void BM_PartitionParametric(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t K = 4;
  Rng rng(1);
  std::vector<double> layers(n);
  for (double& v : layers) v = rng.uniform(0.1, 5.0);
  const StageCostFn cost = [&](std::size_t k, std::size_t i, std::size_t j) {
    double sum = 0.0;
    for (std::size_t l = i; l <= j; ++l) sum += layers[l];
    return sum / static_cast<double>(k + 1);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_minmax(cost, n, K));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_PartitionParametric)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_PartitionReferenceDp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t K = 4;
  Rng rng(2);
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + rng.uniform(0.1, 5.0);
  const StageCostFn cost = [&](std::size_t k, std::size_t i, std::size_t j) {
    return (prefix[j + 1] - prefix[i]) / static_cast<double>(k + 1);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_minmax_reference(cost, n, K));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_PartitionReferenceDp)->RangeMultiplier(2)->Range(16, 256)->Complexity();

// ---- Kuhn-Munkres -----------------------------------------------------------

void BM_KuhnMunkres(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.uniform(0.0, 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lap(cost));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_KuhnMunkres)->RangeMultiplier(2)->Range(8, 128)->Complexity();

// ---- end-to-end planner -----------------------------------------------------

std::vector<const Model*> window_models(std::size_t m) {
  Rng rng(4);
  std::vector<const Model*> models;
  for (std::size_t i = 0; i < m; ++i) {
    models.push_back(&zoo_model(all_model_ids()[rng.index(kNumZooModels)]));
  }
  return models;
}

/// Planner complexity in the window size m (sequential).
void BM_PlannerScaling(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(m);
  const StaticEvaluator eval(soc, models);
  for (auto _ : state) {
    Hetero2PipePlanner planner(eval);
    benchmark::DoNotOptimize(planner.plan());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_PlannerScaling)->RangeMultiplier(2)->Range(2, 16)->Complexity();

/// One cold 16-model window, planned end to end (cost-table build +
/// planner) on one thread.
void BM_PlannerEndToEnd(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(16);
  for (auto _ : state) {
    // Cold path end to end: the evaluator's cost tables are part of every
    // plan-cache miss, so they are measured too (over a warm profile store
    // after the first iteration, as in serving).
    const StaticEvaluator eval(soc, models);
    Hetero2PipePlanner planner(eval);
    benchmark::DoNotOptimize(planner.plan());
  }
}
BENCHMARK(BM_PlannerEndToEnd)->UseRealTime();

/// Graph-native planning end to end: the branchy zoo cells through the
/// GraphPlanner cold path — chain baseline plan, articulation-restricted
/// re-slicing, branch affinity, and the two DES arbitration runs.  The
/// `graphs` arg sweeps window size by cycling the zoo cells; counters
/// record whether the fork/join candidate beat the chain and how many
/// branches it offloaded (correctness of acceptance is asserted in the
/// tests — here it is only a perf-trajectory annotation).
void BM_DagPlannerEndToEnd(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const Soc soc = Soc::kirin990();
  std::vector<const GraphModel*> graphs;
  for (std::size_t i = 0; i < m; ++i) {
    graphs.push_back(&zoo_graph(all_graph_ids()[i % kNumZooGraphs]));
  }
  double accepted = 0.0;
  double offloaded = 0.0;
  for (auto _ : state) {
    GraphPlanner planner(soc, graphs);
    const GraphPlannerReport rep = planner.plan();
    accepted = rep.dag_accepted ? 1.0 : 0.0;
    offloaded = static_cast<double>(rep.offloaded_branches);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["dag_accepted"] = accepted;
  state.counters["offloaded_branches"] = offloaded;
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_DagPlannerEndToEnd)->ArgName("graphs")->Arg(1)->Arg(3)->Arg(6);

// ---- planner throughput (plans/sec) -----------------------------------------

/// The SoA campaign's headline metric: independent cold windows planned per
/// second.  Each benchmark thread runs a complete planner on its own
/// window — the serving-fleet shape, and the
/// direct exercise of the thread-local TaskTable/SimScratch reuse: after
/// each thread's first window, candidate DES scoring allocates nothing.
/// items_per_second (summed across threads by google-benchmark) IS plans/sec;
/// compare threads:1 against BM_PlannerEndToEnd (same m=16 cold window,
/// evaluator build included).
void BM_PlannerThroughput_Chain(benchmark::State& state) {
  const std::size_t m = 16;
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(m);
  for (auto _ : state) {
    const StaticEvaluator eval(soc, models);
    Hetero2PipePlanner planner(eval);
    benchmark::DoNotOptimize(planner.plan());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannerThroughput_Chain)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// DAG windows through the GraphPlanner cold path (chain baseline plan,
/// branch offload candidates, DES arbitration) — the arbitration scorer is
/// the simulate_compiled_makespan thread-local path.
void BM_PlannerThroughput_Dag(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  std::vector<const GraphModel*> graphs;
  for (std::size_t i = 0; i < 3; ++i) {
    graphs.push_back(&zoo_graph(all_graph_ids()[i % kNumZooGraphs]));
  }
  for (auto _ : state) {
    GraphPlanner planner(soc, graphs);
    benchmark::DoNotOptimize(planner.plan());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannerThroughput_Dag)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ---- DES scoring micro-bench ------------------------------------------------

/// One plan-candidate DES scoring, the inner loop of the tail sweep /
/// warm-start audition / arbitration.  `legacy` is the pre-SoA path kept
/// frozen in pipeline_sim_reference (exec::compile -> AoS task vector ->
/// by-value simulate); `soa` is simulate_plan_makespan (direct TaskTable
/// lowering + reused SimScratch).  The ratio is the per-candidate speedup
/// the planner-level benches integrate.
void BM_DesScoring(benchmark::State& state, bool soa) {
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(8);
  const StaticEvaluator eval(soc, models);
  const PipelinePlan plan = Hetero2PipePlanner(eval).plan().plan;
  if (soa) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(simulate_plan_makespan(plan, eval));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          sim::simulate_reference(eval.soc(), tasks_from_plan(plan, eval), {})
              .makespan_ms());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DesScoring, legacy, false);
BENCHMARK_CAPTURE(BM_DesScoring, soa, true);

/// The mitigated-order branch of an 8-model Kirin990 window before its
/// alignment: the plan the tail-sweep benches start from.
PipelinePlan tail_sweep_window(const StaticEvaluator& eval) {
  const std::size_t K = eval.soc().num_processors();
  const PipelinePlan plan = horizontal_plan(eval, K);
  std::vector<double> intensities;
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    intensities.push_back(eval.model_intensity(i));
  }
  const MitigationResult mitigation = mitigate_contention(intensities, K, 0.7);
  PipelinePlan ordered;
  ordered.num_stages = K;
  for (const std::size_t idx : mitigation.order) ordered.models.push_back(plan.models[idx]);
  return ordered;
}

/// The planner's DES scorer: DES makespan, x1.5 when the memory check fails.
PlanScorer planner_des_scorer(const StaticEvaluator& eval) {
  return [&eval](const PipelinePlan& p) {
    double score = simulate_plan_makespan(p, eval);
    if (!eval.satisfies_memory(p)) score *= 1.5;
    return score;
  };
}

/// The scoring calls of one tail sweep, replayed with the planner's exact
/// scorer.  The candidate sequence is recorded once from the mitigated-order
/// branch of an 8-model Kirin990 window; one iteration scores the whole
/// sequence in order, so consecutive calls differ in one model's slices as
/// they do in the sweep and the lowering memo sees the planner's reuse
/// pattern.  items_per_second counts score calls.
void BM_DesScoringTailSweep(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  const StaticEvaluator eval(soc, window_models(8));
  PipelinePlan ordered = tail_sweep_window(eval);
  std::vector<PipelinePlan> sequence;
  const PlanScorer des_scorer = planner_des_scorer(eval);
  const PlanScorer record = [&](const PipelinePlan& p) {
    sequence.push_back(p);
    return des_scorer(p);
  };
  vertical_align(ordered, eval, {}, record);
  for (auto _ : state) {
    for (const PipelinePlan& p : sequence) benchmark::DoNotOptimize(des_scorer(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<benchmark::IterationCount>(sequence.size()));
  state.counters["calls"] = static_cast<double>(sequence.size());
}
BENCHMARK(BM_DesScoringTailSweep)->Name("BM_DesScoring/tail_sweep");

/// One whole DES-mode optimize_tail on the same window after its greedy
/// alignment: the score calls plus the sweep's own bookkeeping (collapse
/// bounds, candidate swaps, accepts).  The difference to
/// BM_DesScoring/tail_sweep's time per sweep is that bookkeeping.
void BM_TailSweepDes(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  const StaticEvaluator eval(soc, window_models(8));
  PipelinePlan aligned = tail_sweep_window(eval);
  WorkStealingOptions no_tail;
  no_tail.tail_optimization = false;
  vertical_align(aligned, eval, no_tail);
  const PlanScorer des_scorer = planner_des_scorer(eval);
  PipelinePlan plan;
  for (auto _ : state) {
    plan = aligned;
    benchmark::DoNotOptimize(optimize_tail(plan, eval, des_scorer));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TailSweepDes)->Name("BM_TailSweep/des");

// ---- online serving loop ----------------------------------------------------

/// A cache-cold stream: `num_windows` windows of `per_window` requests, each
/// window a *distinct* model multiset (consecutive runs over the zoo), so
/// every window is a cold replan and the loop's planning cost dominates.
std::vector<OnlineRequest> cold_stream(std::size_t num_windows,
                                       std::size_t per_window) {
  std::vector<OnlineRequest> stream;
  for (std::size_t w = 0; w < num_windows; ++w) {
    for (std::size_t i = 0; i < per_window; ++i) {
      stream.push_back(OnlineRequest{
          &zoo_model(all_model_ids()[(w + i) % kNumZooModels]),
          static_cast<double>(stream.size()) * 2.0});
    }
  }
  return stream;
}

/// The online loop over a cache-cold 8-window stream.  `serial` plans every
/// window on the loop's thread; `async` prefetches cold plans on a pool of
/// 1/2/4/8 workers.  Both produce bit-identical timelines (asserted in the
/// tests); only host wall-clock differs.
void BM_OnlineLoop(benchmark::State& state, bool async) {
  const Soc soc = Soc::kirin990();
  const std::vector<OnlineRequest> stream = cold_stream(8, 4);
  std::unique_ptr<ThreadPool> pool;
  OnlineOptions opts;
  if (async) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(state.range(0)));
    opts.pool = pool.get();
    opts.async_planning = true;
    opts.prefetch_depth = 3;
  }
  for (auto _ : state) {
    // A fresh per-call cache each iteration keeps every window cold.
    benchmark::DoNotOptimize(run_online(soc, stream, opts));
  }
}
BENCHMARK_CAPTURE(BM_OnlineLoop, serial, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_OnlineLoop, async, true)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Fault-tolerant serving under the flagship robustness scenario: the NPU
/// drops out permanently mid-stream and every later window replans
/// degraded on the survivors.  Measures the loop's host cost with the
/// fault layer active and records the *modeled* cost of losing the NPU as
/// counters: makespan_inflation (faulted / healthy makespan; bounded by the
/// lost fraction of the SoC's compute — on kirin990 the NPU carries most of
/// it, so ~8x, tracked here so regressions in degraded replanning show up)
/// and degraded_replans.
void BM_OnlineNpuDropout(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  // Repeated windows so the degraded path warm-starts from cached healthy
  // plans — the intended serving configuration.
  std::vector<OnlineRequest> stream;
  for (std::size_t w = 0; w < 8; ++w) {
    for (std::size_t i = 0; i < 4; ++i) {
      stream.push_back(OnlineRequest{
          &zoo_model(all_model_ids()[i]),
          static_cast<double>(stream.size()) * 2.0});
    }
  }
  const double healthy_makespan =
      run_online(soc, stream, {}).timeline.makespan_ms();
  const FaultScript faults({FaultEvent{
      FaultKind::kDropout, 0, 20.0, std::numeric_limits<double>::infinity(),
      1.0}});
  OnlineOptions opts;
  opts.faults = &faults;
  double faulted_makespan = 0.0;
  double degraded = 0.0;
  for (auto _ : state) {
    const OnlineResult r = run_online(soc, stream, opts);
    faulted_makespan = r.timeline.makespan_ms();
    degraded = static_cast<double>(r.degraded_hits);
    benchmark::DoNotOptimize(r);
  }
  state.counters["makespan_inflation"] = faulted_makespan / healthy_makespan;
  state.counters["degraded_replans"] = degraded;
}
BENCHMARK(BM_OnlineNpuDropout)->UseRealTime();

/// Prediction-drift observability overhead: the BM_OnlineLoop cache-cold
/// stream with drift tracking off vs on.  Off is the zero-cost contract (one
/// bool branch per window); on adds one window-isolated DES per window plus
/// the post-hoc residual pass — both bounded far under the planner's own DES
/// fan-out, so the two curves must stay within ~2% of each other in
/// BENCH_planner.json.  `drift_slices` documents how many residuals the
/// enabled run actually scored.
void BM_DriftTracking(benchmark::State& state, bool enabled) {
  const Soc soc = Soc::kirin990();
  const std::vector<OnlineRequest> stream = cold_stream(8, 4);
  OnlineOptions opts;
  opts.drift_tracking = enabled;
  double slices = 0.0;
  for (auto _ : state) {
    const OnlineResult r = run_online(soc, stream, opts);
    slices = static_cast<double>(r.slice_records.size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["drift_slices"] = slices;
}
BENCHMARK_CAPTURE(BM_DriftTracking, off, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_DriftTracking, on, true)->UseRealTime();

// ---- warm-start replanning --------------------------------------------------

/// Cold vs warm replan of a window one model away from a cached one.  The
/// warm path is validated against the cold plan once in setup: it must
/// exist and simulate within 10% of the cold plan's makespan (score
/// equivalence; the tests assert the same bound per descriptor).
void BM_WarmStartReplan(benchmark::State& state, bool warm) {
  const Soc soc = Soc::kirin990();
  std::vector<const Model*> seed_models;
  for (std::size_t i = 0; i < 8; ++i) {
    seed_models.push_back(&zoo_model(all_model_ids()[i]));
  }
  std::vector<const Model*> delta_models = seed_models;
  delta_models.back() = &zoo_model(all_model_ids()[9]);  // substitute one

  const StaticEvaluator seed_eval(soc, seed_models);
  const exec::CompiledPlan seed_compiled =
      exec::compile(Hetero2PipePlanner(seed_eval).plan().plan, seed_eval);

  const StaticEvaluator eval(soc, delta_models);
  const Hetero2PipePlanner planner(eval);
  {
    const std::optional<PlannerReport> check = planner.plan_warm(seed_compiled);
    if (!check) {
      state.SkipWithError("plan_warm rejected a one-model-delta seed");
      return;
    }
    const double warm_ms = simulate_plan(check->plan, eval).makespan_ms();
    const double cold_ms = simulate_plan(planner.plan().plan, eval).makespan_ms();
    if (warm_ms > 1.10 * cold_ms) {
      state.SkipWithError("warm plan not score-equivalent to cold");
      return;
    }
  }
  for (auto _ : state) {
    if (warm) {
      benchmark::DoNotOptimize(planner.plan_warm(seed_compiled));
    } else {
      benchmark::DoNotOptimize(planner.plan());
    }
  }
}
BENCHMARK_CAPTURE(BM_WarmStartReplan, cold, false);
BENCHMARK_CAPTURE(BM_WarmStartReplan, warm, true);

// ---- evaluator build and plan-cache keys ------------------------------------

/// A cold 16-model window's StaticEvaluator: its cost tables and per-model
/// intensities.  `cold_store` empties the profile store before every build,
/// so each table computes its per-processor prefix blocks; `warm_store`
/// finds them all in the store, as a serving loop does for recurring models.
void BM_EvaluatorBuild(benchmark::State& state, bool warm) {
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(16);
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      profile_store::clear();
      state.ResumeTiming();
    }
    const StaticEvaluator eval(soc, models);
    benchmark::DoNotOptimize(eval.model_intensity(0));
  }
}
BENCHMARK_CAPTURE(BM_EvaluatorBuild, cold_store, false);
BENCHMARK_CAPTURE(BM_EvaluatorBuild, warm_store, true);

/// The plan-cache key of a 4-model window, as the online loop builds it for
/// every served and every prefetched window.
void BM_PlanCacheMakeKey(benchmark::State& state) {
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> models = window_models(4);
  const PlannerOptions options;
  const exec::PlanCache::PlanEnv env;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::PlanCache::make_key(soc, models, options, env));
  }
}
BENCHMARK(BM_PlanCacheMakeKey);

/// Rewrite the --benchmark_out JSON in place with an "h2p_context" header:
/// the recording host (cpu count — the snapshot's 1-core caveat becomes
/// self-describing) and a per-benchmark-family real_time Summary
/// (util/stats summarize + summary_to_json, the same serializer the metrics
/// snapshot uses).  Best-effort: a malformed file is left untouched.
void annotate_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const std::exception&) {
    return;
  }
  if (!doc.contains("benchmarks")) return;

  // Family = benchmark name up to the first '/' (strips the arg suffix).
  std::map<std::string, std::vector<double>> family_times;
  const Json& benches = doc.at("benchmarks");
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const Json& b = benches.at(i);
    if (!b.contains("name") || !b.contains("real_time")) continue;
    std::string name = b.at("name").as_string();
    const std::size_t slash = name.find('/');
    if (slash != std::string::npos) name.resize(slash);
    family_times[name].push_back(b.at("real_time").as_number());
  }
  Json families = Json::object();
  for (const auto& [name, times] : family_times) {
    families[name] = summary_to_json(summarize(times));
  }

  // threads:{1,2,4,8} scaling efficiency from BM_PlannerThroughput_Chain:
  // efficiency(N) = plans_per_sec(N) / (N * plans_per_sec(1)).  1.0 is
  // perfect linear scaling; on a 1-cpu host every N > 1 row just measures
  // oversubscription and the table is noise (see the warning below).
  std::map<int, double> chain_ips;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const Json& b = benches.at(i);
    if (!b.contains("name") || !b.contains("items_per_second")) continue;
    const std::string& name = b.at("name").as_string();
    if (name.find("BM_PlannerThroughput_Chain") == std::string::npos) continue;
    const std::size_t at = name.find("threads:");
    if (at == std::string::npos) continue;
    chain_ips[std::atoi(name.c_str() + at + 8)] =
        b.at("items_per_second").as_number();
  }
  Json scaling = Json::object();
  if (chain_ips.count(1) && chain_ips[1] > 0.0) {
    for (const auto& [threads, ips] : chain_ips) {
      Json row = Json::object();
      row["plans_per_sec"] = Json::number(ips);
      row["efficiency"] =
          Json::number(ips / (static_cast<double>(threads) * chain_ips[1]));
      scaling["threads:" + std::to_string(threads)] = std::move(row);
    }
  }

  Json context = Json::object();
  context["host"] = obs::host_info_json();
  context["family_real_time"] = std::move(families);
  context["thread_scaling"] = std::move(scaling);
  doc["h2p_context"] = std::move(context);

  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(
        stderr,
        "\n*** WARNING: this host exposes only 1 CPU. ***\n"
        "*** All threads:N rows in %s measure oversubscription, not   ***\n"
        "*** scaling — re-record this snapshot on a multi-core host   ***\n"
        "*** before comparing thread_scaling efficiencies.            ***\n\n",
        path.c_str());
  }

  std::ofstream out(path);
  if (!out) return;
  out << doc.dump();
}

}  // namespace

int main(int argc, char** argv) {
  // `--json [path]` is sugar for the library's own output flags; rewriting
  // the argv keeps the JSON path on benchmark's supported surface.
  std::string json_path;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_planner.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  std::string out_flag;
  std::string fmt_flag;
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    fmt_flag = "--benchmark_out_format=json";
    passthrough.push_back(out_flag.data());
    passthrough.push_back(fmt_flag.data());
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) annotate_bench_json(json_path);
  return 0;
}
