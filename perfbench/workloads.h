#pragma once

// The benchmark's workloads.  Each entry point generates its inputs from
// `opts.seed`, times set-up separately from the measured loop, checks the
// outputs, and returns the end-to-end metrics (opts.trace false) or the
// per-layer metrics of a traced run (opts.trace true).

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

RunResult run_cold_windows(const RunOptions& opts);
RunResult run_online_scenes(const RunOptions& opts);
RunResult run_online_weather(const RunOptions& opts);

/// Fig 7 / Fig 8a oracle: the modeled-metric code on the generators of
/// bench_fig7_overall (seed 20250704) and bench_fig8_ablation (seed 8888)
/// must print the values those benches print.  Appends one line per value
/// to `report` and returns whether every value matched.
bool run_figure_oracle(std::vector<std::string>& report);

/// Build a workload context `reps` times and keep the last one; returns the
/// median build time in seconds, scaled to the reference host by anchors
/// timed before each build, through `median_s`.
template <typename Make>
auto timed_setup(int reps, Make&& make, double* median_s) {
  std::vector<double> times;
  decltype(make()) ctx;
  for (int r = 0; r < reps; ++r) {
    ctx.reset();
    const double scale = anchor_scale({anchor_us(), anchor_us(), anchor_us()});
    const Clock::time_point t0 = Clock::now();
    ctx = make();
    times.push_back(seconds_since(t0) * scale);
  }
  *median_s = median(times);
  return ctx;
}

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 9;

}  // namespace perfbench
