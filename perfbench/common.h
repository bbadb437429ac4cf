#pragma once

// Shared plumbing of the repository benchmark: run options, the metric
// ledger a workload fills, wall timers, the host record and the log sink
// that keeps obs::Log output out of the timed runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When non-empty, the generated inputs are written here as JSON so a run
  /// can be replayed or inspected.
  std::string dump_dir;
};

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `attempted` counts timed operations
/// (windows planned, requests served); `failed` counts operations that threw
/// and correctness checks that did not hold.  Every failure also leaves a
/// line in `errors`.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Median anchor wall time over the measured loop, in microseconds.
  double anchor_us = 0.0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a correctness check; a false `ok` counts one failure.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double pct(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// Host-speed anchor.  Neighbours on a shared host slow this process by up
/// to ~1.6x, for seconds to minutes at a time, so host times are reported as
/// on a reference host: each is scaled by kAnchorRefUs / (the wall time of a
/// fixed piece of work timed next to it).  The work is planner-shaped (small
/// heap tables, std::function calls, a parametric min-max partition, an
/// event queue) and belongs to the benchmark, so no change to the program
/// moves it.  Returns its wall time in microseconds (about 1 ms).
double anchor_us();
inline constexpr double kAnchorRefUs = 1000.0;

/// kAnchorRefUs / median(anchor samples).
double anchor_scale(std::vector<double> samples);

/// Timings on a shared machine only gain time from neighbours, so a run is
/// cut into blocks of identical work, each host-time statistic is taken per
/// block, and the best (lowest) block value is reported.
class BestOfBlocks {
 public:
  void offer(const std::string& name, double value);
  [[nodiscard]] double best(const std::string& name) const;

 private:
  std::map<std::string, double> best_;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// nproc, CPU model, compiler, build type, SIMD backend, H2P_THREADS, and
/// whether the benchmark itself was compiled with optimization.
std::string host_context_json();
bool built_optimized();

/// Routes the library's obs::Log away from stderr into a counter of records
/// for the life of the object (one at a time).
class LogCounter {
 public:
  LogCounter();
  ~LogCounter();
  LogCounter(const LogCounter&) = delete;
  LogCounter& operator=(const LogCounter&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Records counted so far by the live LogCounter (0 when there is none).
std::uint64_t log_records();

/// Per-name totals of the obs::Tracer spans folded so far: count,
/// inclusive time, self time (inclusive minus the direct child spans on the
/// same thread) and the sum of the spans' "submitted" argument.
struct SpanTotals {
  struct Entry {
    std::uint64_t count = 0;
    double incl_us = 0.0;
    double self_us = 0.0;
    double submitted = 0.0;
  };
  std::map<std::string, Entry> by_name;
  /// des.simulate time nested under a planner span (plan scoring) versus
  /// outside every planner span (the serving loop's stream timeline).
  double des_nested_us = 0.0;
  std::uint64_t des_nested_calls = 0;
  double des_top_us = 0.0;

  /// Fold the tracer's events into the totals, then clear the tracer.
  void drain_global_tracer();
  [[nodiscard]] const Entry& get(const std::string& name) const;
};

}  // namespace perfbench
