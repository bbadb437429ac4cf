#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

namespace h2p::obs {

class Registry;

namespace detail {

/// Shard count of every metric: threads are spread round-robin over a fixed
/// set of cache-line-padded slots, so two hot threads rarely contend on one
/// line while a snapshot stays O(kShards) per metric.
inline constexpr std::size_t kShards = 16;

inline std::atomic<std::size_t> g_next_shard{0};

/// Stable shard slot of the calling thread (assigned on first use).
inline std::size_t shard_index() {
  thread_local const std::size_t idx =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> v{0};
};

/// fetch_add for atomic<double> via CAS (no contention in the sharded use).
inline void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic counter.  `inc` is one relaxed fetch_add on the calling
/// thread's shard when the owning registry is enabled, and only the relaxed
/// enabled-load when it is not — safe to leave compiled into hot paths.
class Counter {
 public:
  void inc(std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t value() const;

 private:
  friend class Registry;
  explicit Counter(const Registry* owner) : owner_(owner) {}
  const Registry* owner_;
  std::array<detail::CounterShard, detail::kShards> shards_;
};

/// Fixed-bucket latency histogram over Registry::default_latency_buckets
/// (ascending upper bounds); one implicit overflow bucket catches
/// everything above the last.
/// `observe` touches only the calling thread's shard (bucket + count + sum
/// + min/max, all relaxed); disabled, it is the enabled-load alone.
class Histogram {
 public:
  void observe(double v);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Aggregated counts, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// util/stats Summary with percentiles interpolated inside buckets (the
  /// same shape `summarize` yields on raw samples, so both serialize with
  /// `summary_to_json`).
  [[nodiscard]] Summary summary() const;

 private:
  friend class Registry;
  friend class ScopedLatency;
  explicit Histogram(const Registry* owner);

  struct alignas(64) Scalars {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  const Registry* owner_;
  std::vector<double> bounds_;
  std::size_t num_buckets_;  // bounds_.size() + 1
  /// Shard-major flat layout so the per-thread slice is contiguous.
  std::vector<detail::CounterShard> buckets_;
  std::array<Scalars, detail::kShards> scalars_;
};

/// Registry of named metrics.  Registration (`counter`/`histogram`)
/// takes a mutex and is meant for cold paths or cached references
/// (`static obs::Counter& c = obs::Registry::global().counter("...")`);
/// handles stay valid for the registry's lifetime — `reset` zeroes values
/// but never invalidates them.  Disabled (the default) every metric
/// operation is a relaxed load and a branch, so instrumentation can stay
/// compiled into release binaries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default instance used by the library's instrumentation.
  static Registry& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Exponential millisecond buckets 0.001 .. 8192 (doubling).
  static std::vector<double> default_latency_buckets();

  /// Aggregated values of every registered metric plus a `host` block
  /// (cpu count) so snapshots are self-describing about the
  /// machine that recorded them.
  [[nodiscard]] Json snapshot() const;

  /// Zero all metric values.  Registered handles stay valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<bool> enabled_{false};
};

/// RAII latency sample: observes elapsed wall milliseconds into a histogram
/// at scope exit.  Free when the owning registry is disabled at entry.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

/// `host` block shared by Registry::snapshot and the bench JSON header:
/// {"cpus": hardware_concurrency}.
[[nodiscard]] Json host_info_json();

// ---- hot-path inline bodies -----------------------------------------------

inline void Counter::inc(std::uint64_t n) {
  if (!owner_->enabled()) return;
  shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
}

inline void Histogram::observe(double v) {
  if (!owner_->enabled()) return;
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  const std::size_t shard = detail::shard_index();
  buckets_[shard * num_buckets_ + b].v.fetch_add(1, std::memory_order_relaxed);
  Scalars& s = scalars_[shard];
  s.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(s.sum, v);
  detail::atomic_min(s.min, v);
  detail::atomic_max(s.max, v);
}

}  // namespace h2p::obs
