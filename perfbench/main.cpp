// Repository benchmark binary.
//
//   perfbench --workload <cold_windows|online_scenes|online_weather>
//             --seed <n> --seconds <s> --trace <0|1> [--dump <dir>]
//
// Prints every metric by name and unit, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced run
// with --trace 1.  Exits 1 when any correctness check failed, 2 on bad
// arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, on every workload.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"plan_ms_p50", "ms"},
    {"plan_ms_p99", "ms"},
    {"plans_per_s", "1/s"},
    {"loop_us_per_window_p50", "us"},
    {"loop_us_per_window_p90", "us"},
    {"modeled_makespan_ms_mean", "ms"},
    {"speedup_vs_mnn", "x"},
    {"speedup_vs_band", "x"},
    {"speedup_vs_noct", "x"},
    {"makespan_vs_exhaustive_pct", "%"},
    {"request_latency_ms_p50", "ms"},
    {"request_latency_ms_p99", "ms"},
    {"slo_miss_ratio", "ratio"},
};

/// Printed with --trace 1, on every workload; a layer a workload does not
/// observe reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"soc.cost_tables_us", "us"},
    {"core.horizontal_us", "us"},
    {"core.mitigation_us", "us"},
    {"core.mitigation_relocations", "count"},
    {"core.align_self_us", "us"},
    {"core.align_branches", "count"},
    {"core.layers_stolen", "count"},
    {"core.report_us", "us"},
    {"sim.score_calls", "count"},
    {"sim.score_us", "us"},
    {"sim.score_total_us", "us"},
    {"exec.compile_us", "us"},
    {"exec.slices", "count"},
    {"sim.simulate_us", "us"},
    {"sim.tasks", "count"},
    {"sim.des_us", "us"},
    {"des.migrations", "count"},
    {"core.graph_plan_us", "us"},
    {"core.dag_accepted_ratio", "ratio"},
    {"exec.cache_hit_ratio", "ratio"},
    {"exec.cache_evictions", "count"},
    {"core.warm_ratio", "ratio"},
    {"core.warm_us", "us"},
    {"core.degraded_ratio", "ratio"},
    {"core.degraded_us", "us"},
    {"core.cold_ratio", "ratio"},
    {"core.cold_us", "us"},
    {"online.plan_us", "us"},
    {"online.prefetch_pump_us", "us"},
    {"online.consume_us", "us"},
    {"online.probe_us", "us"},
    {"online.prefetch_useful_ratio", "ratio"},
    {"online.prefetch_discarded", "count"},
    {"pool.jobs", "count"},
    {"pool.help_runs", "count"},
    {"online.wait_ms_p50", "ms"},
    {"online.wait_ms_p99", "ms"},
    {"online.exec_ms_p50", "ms"},
    {"online.exec_ms_p99", "ms"},
    {"online.planning_charged_ms", "ms"},
    {"online.planning_hidden_ms", "ms"},
    {"online.shed", "count"},
    {"online.deferred", "count"},
    {"online.backoff_wait_ms", "ms"},
    {"online.bucket_transitions", "count"},
    {"online.bus_degraded_windows", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"obs.log_records", "count"},
    {"bench.error_ratio", "ratio"},
};

const std::map<std::string, RunResult (*)(const RunOptions&)> kWorkloads = {
    {"cold_windows", perfbench::run_cold_windows},
    {"online_scenes", perfbench::run_online_scenes},
    {"online_weather", perfbench::run_online_weather},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_windows|online_scenes|online_weather> --seed <n> "
               "--seconds <s> --trace <0|1> [--dump <dir>]\n",
               msg);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

/// Order the workload's metrics by the spec table, fill unobserved
/// per-layer metrics with 0, and flag names outside the table.
std::vector<Metric> ordered(const std::vector<MetricSpec>& specs,
                            RunResult& res, bool fill_missing) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : res.metrics) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) {
    const auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      res.check(fill_missing, std::string("metric not produced: ") + s.name);
      out.push_back({s.name, 0.0, s.unit});
      continue;
    }
    res.check(it->second.unit == s.unit, std::string("unit mismatch: ") + s.name);
    res.check(std::isfinite(it->second.value),
              std::string("metric not finite: ") + s.name);
    out.push_back({s.name, it->second.value, s.unit});
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) {
    res.check(false, "metric outside the table: " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_number(value, &number) || number < 0 || number != std::floor(number)) {
        return usage("--seed must be a non-negative integer");
      }
      opts.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_number(value, &number) || number <= 0.0) {
        return usage("--seconds must be positive");
      }
      opts.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return usage("--trace must be 0 or 1");
      }
      opts.trace = std::string(value) == "1";
      have_trace = true;
    } else if (arg == "--dump") {
      opts.dump_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (kWorkloads.count(opts.workload) == 0) {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  if (!opts.dump_dir.empty() && !std::filesystem::is_directory(opts.dump_dir)) {
    return usage(("--dump directory does not exist: " + opts.dump_dir).c_str());
  }

  std::printf("# host %s\n", perfbench::host_context_json().c_str());
  if (!perfbench::built_optimized()) {
    std::printf("# WARNING: UNOPTIMIZED BUILD - timings are not comparable\n");
    std::fprintf(stderr, "perfbench: WARNING: unoptimized build\n");
  }

  // Keep the library's structured log off stderr for the whole run; the
  // record count is reported as obs.log_records.
  perfbench::LogCounter log;
  RunResult res;
  try {
    res = kWorkloads.at(opts.workload)(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  if (opts.workload == "cold_windows") {
    // The modeled-metric code must reproduce the paper-figure benches.
    std::vector<std::string> report;
    res.check(perfbench::run_figure_oracle(report),
              "Fig 7 / Fig 8a oracle mismatch");
    for (const std::string& line : report) std::printf("# oracle %s\n", line.c_str());
  }
  if (opts.trace) {
    res.add("bench.error_ratio",
            static_cast<double>(res.failed) /
                static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
            "ratio");
  }
  const std::vector<Metric> metrics =
      ordered(opts.trace ? kPerLayer : kEndToEnd, res, opts.trace);

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d attempted=%llu failed=%llu\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0,
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  std::printf("# anchor_us=%.1f (host times are scaled by %.0f / anchor_us)\n",
              res.anchor_us, perfbench::kAnchorRefUs);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : res.errors) std::printf("# FAILED %s\n", e.c_str());

  h2p::Json out = h2p::Json::object();
  out["correct"] = h2p::Json::boolean(res.failed == 0);
  out["attempted"] = h2p::Json::number(static_cast<double>(res.attempted));
  out["failed"] = h2p::Json::number(static_cast<double>(res.failed));
  h2p::Json values = h2p::Json::object();
  for (const Metric& m : metrics) {
    h2p::Json v = h2p::Json::object();
    v["value"] = h2p::Json::number(m.value);
    v["unit"] = h2p::Json::string(m.unit);
    values[m.name] = v;
  }
  out["metrics"] = values;
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
