#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace h2p::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

[[nodiscard]] const char* to_string(LogLevel level);
/// Parse "debug" | "info" | "warn" | "error" | "off"; nullopt otherwise.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text);

/// One key-value field of a structured log record.
struct LogField {
  enum class Kind { kNumber, kText, kBool };

  std::string key;
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;
  bool flag = false;

  LogField(std::string k, double v)
      : key(std::move(k)), kind(Kind::kNumber), number(v) {}
  LogField(std::string k, int v)
      : LogField(std::move(k), static_cast<double>(v)) {}
  LogField(std::string k, long v)
      : LogField(std::move(k), static_cast<double>(v)) {}
  LogField(std::string k, unsigned long v)
      : LogField(std::move(k), static_cast<double>(v)) {}
  LogField(std::string k, unsigned long long v)
      : LogField(std::move(k), static_cast<double>(v)) {}
  LogField(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::kText), text(std::move(v)) {}
  LogField(std::string k, const char* v)
      : key(std::move(k)), kind(Kind::kText), text(v == nullptr ? "" : v) {}
  LogField(std::string k, bool v)
      : key(std::move(k)), kind(Kind::kBool), flag(v) {}
};

/// Structured JSONL event log.  One line per record:
///   {"ts_ms":12.345,"seq":7,"level":"warn","event":"online.prefetch_failed",...}
/// `ts_ms` is wall milliseconds since the Log's construction; `seq` is a
/// monotonic per-Log sequence number, so records from several threads
/// have a total order even when ts_ms ties (lines are seq-unique, and
/// sorting on seq recovers emission order).
/// Records at or above the current level go to the sink (stderr by default,
/// a file via `set_sink_file`); everything else is a relaxed load and a
/// branch.  Thread-safe: each record is formatted privately and written
/// under one lock, so lines never interleave.
///
/// This replaces the library's previous silent-failure paths (swallowed
/// prefetch exceptions, unexplained fault reactions) — nothing here feeds
/// back into planning or simulation, so logging cannot perturb results.
class Log {
 public:
  Log() : epoch_(std::chrono::steady_clock::now()) {}
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Process-wide default instance used by the library's instrumentation.
  static Log& global();

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool should_log(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kOff;
  }

  /// Append records to `path` from now on; throws std::runtime_error when
  /// the file cannot be opened.
  void set_sink_file(const std::string& path);
  /// Redirect to an arbitrary stream (tests); nullptr restores stderr.
  /// The stream is not owned and must outlive the log's use.
  void set_sink_stream(std::ostream* os);

  void emit(LogLevel level, std::string_view event,
            std::initializer_list<LogField> fields = {});

  void debug(std::string_view event,
             std::initializer_list<LogField> fields = {}) {
    emit(LogLevel::kDebug, event, fields);
  }
  void info(std::string_view event,
            std::initializer_list<LogField> fields = {}) {
    emit(LogLevel::kInfo, event, fields);
  }
  void warn(std::string_view event,
            std::initializer_list<LogField> fields = {}) {
    emit(LogLevel::kWarn, event, fields);
  }
  void error(std::string_view event,
             std::initializer_list<LogField> fields = {}) {
    emit(LogLevel::kError, event, fields);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  /// Next record's sequence number; claimed with one relaxed fetch_add.
  std::atomic<std::uint64_t> seq_{0};
  /// Default kWarn: warnings and errors surface, chatter does not.
  std::atomic<int> level_{static_cast<int>(LogLevel::kWarn)};
  std::mutex mu_;  // guards the sink
  std::ofstream file_;
  std::ostream* stream_ = nullptr;  // non-owning override; null = stderr
};

}  // namespace h2p::obs
