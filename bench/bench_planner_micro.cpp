// Planner micro-benchmarks (google-benchmark): verifies the complexity
// claims of Sec. V — O(nK) horizontal DP, O(|M|^3) Kuhn-Munkres, and the
// end-to-end planner cost O(|M|(nK + n + K) + |M|^3 |H|) — and times
// prediction capture, which no perfbench metric covers.  Host cost of planning and
// serving is measured by perfbench (perfbench/run.py).
//
// Usage:
//   bench_planner_micro [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/lap.h"
#include "core/partition.h"
#include "core/planner.h"
#include "models/model_zoo.h"
#include "sim/online.h"
#include "util/rng.h"

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

// ---- prediction capture -----------------------------------------------------

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

/// Prediction-capture overhead: the cache-cold stream with drift tracking
/// off vs on.  Off is the zero-cost contract (one bool branch per window);
/// on adds one window-isolated DES per window, small next to the planner's
/// own DES fan-out, and copies each slice's executed times; there is no
/// residual pass.  The gap between the two rows is the cost of capture.
/// `drift_slices` documents how many slice records the enabled run kept.
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

}  // namespace

BENCHMARK_MAIN();
