#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace h2p::obs {

/// One key-value annotation on a span or instant event.
struct TraceArg {
  std::string key;
  bool is_number = false;
  double number = 0.0;
  std::string text;

  TraceArg(std::string k, double v)
      : key(std::move(k)), is_number(true), number(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), text(std::move(v)) {}
  TraceArg(std::string k, const char* v)
      : key(std::move(k)), text(v == nullptr ? "" : v) {}
};

/// One recorded event.  `track` is a per-thread row index in recording
/// order; `start_us`/`dur_us` are wall microseconds since the tracer's
/// epoch.  An instant event has dur_us 0 and `instant` set.
struct TraceEvent {
  std::string name;
  std::uint32_t track = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  bool instant = false;
  std::vector<TraceArg> args;
};

/// Wall-clock span collector for the host side (planner, plan cache, online
/// loop, thread pool).  Each host thread gets its own
/// track, lazily on first record; tracks map to Perfetto tids when the
/// buffer is merged with the DES timeline into one chrome-trace file
/// (sim/chrome_trace.h).
///
/// Disabled (the default), `Span` construction is a relaxed load and a
/// branch and nothing is recorded.  Recording takes a mutex — spans mark
/// phases (a planner pass, a pool job, a serving-window step), not
/// per-event DES work, so the rate is low.  Instrumentation is strictly
/// observational: nothing planned or simulated ever reads the tracer, so
/// enabling it cannot perturb plan output (asserted by the determinism
/// suites).
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide default instance used by the library's instrumentation.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drop all events and track registrations (the epoch is kept).
  void clear();

  /// Label the calling thread's trace row ("online-loop", "planner", ...).
  /// No-op while disabled.
  void name_current_thread(const std::string& name);

  /// Wall microseconds since the tracer's epoch.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
               .count() /
           1.0e3;
  }

  /// Record a completed span on the calling thread's track.  No-op while
  /// disabled.
  void record(std::string name, double start_us, double dur_us,
              std::vector<TraceArg> args = {});

  /// Record a zero-duration instant event (cache decisions, fault edges).
  void instant(std::string name, std::vector<TraceArg> args = {});

  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// track index -> explicit name; unnamed tracks get a generic label at
  /// export time.
  [[nodiscard]] std::map<std::uint32_t, std::string> track_names() const;

 private:
  std::uint32_t track_for_current_thread_locked();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, std::uint32_t> track_of_thread_;
  std::map<std::uint32_t, std::string> track_names_;
  std::uint32_t next_track_ = 0;
};

/// RAII span: captures the start time at construction, records on
/// destruction.  When the tracer is disabled at construction the span is
/// inert (args are dropped without allocating).
class Span {
 public:
  explicit Span(const char* name) : Span(Tracer::global(), name) {}
  Span(Tracer& tracer, const char* name) {
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    name_ = name;
    start_us_ = tracer.now_us();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->record(name_, start_us_, tracer_->now_us() - start_us_,
                    std::move(args_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string key, double v) {
    if (tracer_ != nullptr) args_.emplace_back(std::move(key), v);
  }
  void arg(std::string key, std::string v) {
    if (tracer_ != nullptr) args_.emplace_back(std::move(key), std::move(v));
  }
  void arg(std::string key, const char* v) {
    if (tracer_ != nullptr) args_.emplace_back(std::move(key), v);
  }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = "";
  double start_us_ = 0.0;
  std::vector<TraceArg> args_;
};

}  // namespace h2p::obs
