#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace h2p::obs {

/// Position of a slice in its model's chain — the "slice-kind" axis of the
/// residual statistics.  Lead slices see cold queues and arrival jitter,
/// tail slices accumulate upstream drift, interior slices isolate the pure
/// per-slice model error; a model compiled as a single slice is kSolo.
enum class SliceKind : std::uint8_t {
  kLead = 0,
  kInterior = 1,
  kTail = 2,
  kSolo = 3,
};

[[nodiscard]] const char* to_string(SliceKind kind);

/// Classify seq `seq_in_model` of a model whose last slice is `last_seq`.
[[nodiscard]] inline SliceKind classify_slice(std::size_t seq_in_model,
                                              std::size_t last_seq) {
  if (last_seq == 0) return SliceKind::kSolo;
  if (seq_in_model == 0) return SliceKind::kLead;
  if (seq_in_model >= last_seq) return SliceKind::kTail;
  return SliceKind::kInterior;
}

/// One slice's predicted-vs-executed evidence.  "Predicted" is what the
/// arbitrating DES promised when the plan was chosen (window-isolated, no
/// faults); "executed" is what actually happened — the final streaming
/// timeline in `run_online`.  Everything else is context the calibration
/// loop conditions on: where it ran, how hot the SoC was, how degraded the
/// bus was, and whether a correlated weather event covered it.
struct SliceRecord {
  std::size_t window = 0;
  std::size_t model_idx = 0;
  std::size_t seq_in_model = 0;
  std::size_t proc = 0;  // planned processor
  SliceKind kind = SliceKind::kSolo;
  std::size_t thermal_bucket = 0;
  double bus_factor = 1.0;
  double predicted_start_ms = 0.0;
  double predicted_finish_ms = 0.0;
  double executed_start_ms = 0.0;
  double executed_finish_ms = 0.0;
  bool migrated = false;   // executed on a different processor than planned
  int weather_idx = -1;    // covering WeatherEvent index, -1 = clear skies

  [[nodiscard]] double predicted_ms() const {
    return predicted_finish_ms - predicted_start_ms;
  }
  [[nodiscard]] double executed_ms() const {
    return executed_finish_ms - executed_start_ms;
  }
  /// Signed relative duration error, (executed - predicted) / predicted.
  /// Positive = the model was optimistic.  Records with a non-positive
  /// predicted duration are skipped by the tracker (nothing to divide by).
  [[nodiscard]] double rel_err() const {
    const double p = predicted_ms();
    return p > 0.0 ? (executed_ms() - p) / p : 0.0;
  }
};

/// Windowed drift-detector configuration.  The detector keeps an EWMA of
/// |rel_err| over records in arrival order; once at least `min_samples`
/// records have been seen and the EWMA crosses `alert_threshold`, it fires
/// one alert (obs::Log warning + `online.drift_alert` trace instant +
/// `drift.alerts` counter) and re-arms only after the EWMA falls back
/// under `rearm_ratio * alert_threshold` — hysteresis against alert storms.
struct DriftOptions {
  double ewma_alpha = 0.1;
  double alert_threshold = 0.25;
  double rearm_ratio = 0.8;
  std::size_t min_samples = 8;
};

/// Streaming residual aggregate of one (processor × slice-kind ×
/// thermal-bucket) cell.  Sums (not means) so the derived ratios below are
/// exact over every record the cell has seen.
struct DriftCell {
  std::size_t proc = 0;
  SliceKind kind = SliceKind::kSolo;
  std::size_t thermal_bucket = 0;
  std::uint64_t count = 0;
  double sum_predicted_ms = 0.0;
  double sum_executed_ms = 0.0;
  double sum_rel_err = 0.0;
  double sum_abs_rel_err = 0.0;
  double max_abs_rel_err = 0.0;

  /// Observed/predicted duration ratio — the multiplicative correction a
  /// calibration pass would apply to this cell's cost descriptors.
  [[nodiscard]] double correction() const {
    return sum_predicted_ms > 0.0 ? sum_executed_ms / sum_predicted_ms : 1.0;
  }
  [[nodiscard]] double mean_rel_err() const {
    return count > 0 ? sum_rel_err / static_cast<double>(count) : 0.0;
  }
  [[nodiscard]] double mean_abs_rel_err() const {
    return count > 0 ? sum_abs_rel_err / static_cast<double>(count) : 0.0;
  }
  /// Confidence in the correction from the sample count alone:
  /// n / (n + k), k = DriftOptions::min_samples (0 samples → 0, → 1 as
  /// evidence accumulates).
  [[nodiscard]] double confidence(std::size_t k) const {
    return static_cast<double>(count) /
           (static_cast<double>(count) + static_cast<double>(k));
  }
};

/// Calibration scorecard: the per-descriptor correction suggestions plus
/// the run-level drift aggregates they came from.  Serialized by
/// core/serialize (`calibration_report_to_json`, schema "h2p.drift/v1").
struct CalibrationReport {
  std::vector<DriftCell> cells;  // sorted by (proc, kind, thermal_bucket)
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;  // non-positive predicted duration
  std::uint64_t alerts = 0;
  double ewma_abs_rel_err = 0.0;
  std::size_t min_samples = 0;  // the confidence prior k used above

  [[nodiscard]] double mean_abs_rel_err() const;
};

/// Pure scorecard construction from raw records — exact, deterministic
/// arithmetic (a cell's correction is literally sum(executed)/sum(predicted)
/// over its records), so tests can assert ratios to the bit.  Does not run
/// the alert detector; `alerts`/`ewma_abs_rel_err` stay 0.
[[nodiscard]] CalibrationReport calibration_report(
    std::span<const SliceRecord> records, const DriftOptions& options = {});

/// Streaming drift tracker.  `observe` updates the record's
/// (proc × kind × bucket) cell, feeds the per-cell residual histogram
/// (`drift.rel_err.p<P>.<kind>.b<B>`) and signed-error gauge
/// (`drift.mean_rel_err.p<P>.<kind>.b<B>`) in the target Registry, and
/// advances the EWMA alert detector.  All updates are strictly
/// observational: nothing planned, simulated, or executed reads the tracker
/// back.
///
/// Thread-safe; `run_online` uses a private instance per run so its alert
/// sequence is deterministic and independent of other runs.
class DriftTracker {
 public:
  explicit DriftTracker(DriftOptions options = {},
                        Registry* registry = &Registry::global(),
                        Log* log = &Log::global(),
                        Tracer* tracer = &Tracer::global());

  DriftTracker(const DriftTracker&) = delete;
  DriftTracker& operator=(const DriftTracker&) = delete;

  void observe(const SliceRecord& rec);

  [[nodiscard]] std::vector<DriftCell> cells() const;
  [[nodiscard]] CalibrationReport report() const;
  [[nodiscard]] std::uint64_t records() const;
  [[nodiscard]] std::uint64_t alerts() const;
  [[nodiscard]] double ewma_abs_rel_err() const;

  /// Clear residual state (cells, EWMA, alert latch).  Registered metric
  /// handles in the Registry keep their accumulated values.
  void reset();

  /// Residual histogram bounds: symmetric signed relative error, dense
  /// around 0 where a calibrated model should live.
  static std::vector<double> rel_err_buckets();

 private:
  struct CellState {
    DriftCell cell;
    Histogram* hist = nullptr;
    Gauge* gauge = nullptr;
  };
  using CellKey = std::tuple<std::size_t, std::uint8_t, std::size_t>;

  DriftOptions options_;
  Registry* registry_;
  Log* log_;
  Tracer* tracer_;

  mutable std::mutex mu_;
  std::map<CellKey, CellState> cells_;
  std::uint64_t records_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t alerts_ = 0;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;
  bool alerting_ = false;
};

}  // namespace h2p::obs
