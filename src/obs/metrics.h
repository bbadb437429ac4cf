#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/json.h"

namespace h2p::obs {

class Registry;

namespace detail {

/// Shard count of every counter: threads are spread round-robin over a fixed
/// set of cache-line-padded slots, so two hot threads rarely contend on one
/// line while a snapshot stays O(kShards) per counter.
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

/// Registry of named counters of internal events that no API returns
/// (intervals are timed by obs::Span, not here).  Registration takes a
/// mutex and is meant for cold paths or cached references
/// (`static obs::Counter& c = obs::Registry::global().counter("...")`);
/// handles stay valid for the registry's lifetime — `reset` zeroes values
/// but never invalidates them.  Disabled (the default) every `inc` is a
/// relaxed load and a branch, so instrumentation can stay compiled into
/// release binaries.
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

  /// {"host": host_info_json(), "counters": {name: value}} — the aggregated
  /// value of every registered counter plus the machine that recorded it.
  [[nodiscard]] Json snapshot() const;

  /// Zero all counters.  Registered handles stay valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::atomic<bool> enabled_{false};
};

/// `host` block shared by Registry::snapshot and the bench JSON header:
/// {"cpus": hardware_concurrency}.
[[nodiscard]] Json host_info_json();

// ---- hot-path inline bodies -----------------------------------------------

inline void Counter::inc(std::uint64_t n) {
  if (!owner_->enabled()) return;
  shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace h2p::obs
