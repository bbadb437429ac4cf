#include "obs/drift.h"

#include <algorithm>
#include <cmath>

namespace h2p::obs {
namespace {

std::string cell_suffix(std::size_t proc, SliceKind kind, std::size_t bucket) {
  std::string s = "p";
  s += std::to_string(proc);
  s += '.';
  s += to_string(kind);
  s += ".b";
  s += std::to_string(bucket);
  return s;
}

}  // namespace

const char* to_string(SliceKind kind) {
  switch (kind) {
    case SliceKind::kLead: return "lead";
    case SliceKind::kInterior: return "interior";
    case SliceKind::kTail: return "tail";
    case SliceKind::kSolo: return "solo";
  }
  return "?";
}

// ---- calibration report ----------------------------------------------------

double CalibrationReport::mean_abs_rel_err() const {
  if (records == 0) return 0.0;
  double sum = 0.0;
  for (const DriftCell& c : cells) sum += c.sum_abs_rel_err;
  return sum / static_cast<double>(records);
}

CalibrationReport calibration_report(std::span<const SliceRecord> records,
                                     const DriftOptions& options) {
  std::map<std::tuple<std::size_t, std::uint8_t, std::size_t>, DriftCell>
      cells;
  CalibrationReport rep;
  rep.min_samples = options.min_samples;
  for (const SliceRecord& rec : records) {
    const double p = rec.predicted_ms();
    if (!(p > 0.0)) {
      ++rep.skipped;
      continue;
    }
    ++rep.records;
    DriftCell& cell = cells[{rec.proc, static_cast<std::uint8_t>(rec.kind),
                             rec.thermal_bucket}];
    cell.proc = rec.proc;
    cell.kind = rec.kind;
    cell.thermal_bucket = rec.thermal_bucket;
    ++cell.count;
    cell.sum_predicted_ms += p;
    cell.sum_executed_ms += rec.executed_ms();
    const double e = rec.rel_err();
    cell.sum_rel_err += e;
    cell.sum_abs_rel_err += std::fabs(e);
    cell.max_abs_rel_err = std::max(cell.max_abs_rel_err, std::fabs(e));
  }
  rep.cells.reserve(cells.size());
  for (const auto& [key, cell] : cells) rep.cells.push_back(cell);
  return rep;
}

// ---- DriftTracker ----------------------------------------------------------

DriftTracker::DriftTracker(DriftOptions options, Registry* registry, Log* log,
                           Tracer* tracer)
    : options_(options), registry_(registry), log_(log), tracer_(tracer) {}

std::vector<double> DriftTracker::rel_err_buckets() {
  return {-0.5, -0.25, -0.1, -0.05, -0.02, 0.0,
          0.02, 0.05,  0.1,  0.25,  0.5,   1.0, 2.0, 4.0};
}

void DriftTracker::observe(const SliceRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  const double p = rec.predicted_ms();
  if (!(p > 0.0)) {
    ++skipped_;
    return;
  }
  ++records_;
  const double e = rec.rel_err();
  const double a = std::fabs(e);

  const CellKey key{rec.proc, static_cast<std::uint8_t>(rec.kind),
                    rec.thermal_bucket};
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    CellState st;
    st.cell.proc = rec.proc;
    st.cell.kind = rec.kind;
    st.cell.thermal_bucket = rec.thermal_bucket;
    const std::string suffix =
        cell_suffix(rec.proc, rec.kind, rec.thermal_bucket);
    st.hist =
        &registry_->histogram("drift.rel_err." + suffix, rel_err_buckets());
    st.gauge = &registry_->gauge("drift.mean_rel_err." + suffix);
    it = cells_.emplace(key, st).first;
  }
  CellState& st = it->second;
  ++st.cell.count;
  st.cell.sum_predicted_ms += p;
  st.cell.sum_executed_ms += rec.executed_ms();
  st.cell.sum_rel_err += e;
  st.cell.sum_abs_rel_err += a;
  st.cell.max_abs_rel_err = std::max(st.cell.max_abs_rel_err, a);
  st.hist->observe(e);
  st.gauge->set(st.cell.mean_rel_err());
  registry_->counter("drift.records").inc();

  // Windowed detector: EWMA of |rel_err| in arrival order, alert on
  // threshold crossing, hysteresis re-arm.
  ewma_ = ewma_seeded_ ? options_.ewma_alpha * a +
                             (1.0 - options_.ewma_alpha) * ewma_
                       : a;
  ewma_seeded_ = true;
  registry_->gauge("drift.ewma_abs_rel_err").set(ewma_);
  if (records_ < options_.min_samples) return;
  if (!alerting_ && ewma_ > options_.alert_threshold) {
    alerting_ = true;
    ++alerts_;
    registry_->counter("drift.alerts").inc();
    log_->warn("drift.alert",
               {{"window", static_cast<unsigned long long>(rec.window)},
                {"proc", static_cast<unsigned long long>(rec.proc)},
                {"kind", to_string(rec.kind)},
                {"thermal_bucket",
                 static_cast<unsigned long long>(rec.thermal_bucket)},
                {"ewma_abs_rel_err", ewma_},
                {"threshold", options_.alert_threshold},
                {"rel_err", e}});
    tracer_->instant(
        "online.drift_alert",
        {{"window", static_cast<double>(rec.window)},
         {"proc", static_cast<double>(rec.proc)},
         {"kind", to_string(rec.kind)},
         {"ewma_abs_rel_err", ewma_},
         {"threshold", options_.alert_threshold}});
  } else if (alerting_ &&
             ewma_ < options_.rearm_ratio * options_.alert_threshold) {
    alerting_ = false;
  }
}

std::vector<DriftCell> DriftTracker::cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DriftCell> out;
  out.reserve(cells_.size());
  for (const auto& [key, st] : cells_) out.push_back(st.cell);
  return out;
}

CalibrationReport DriftTracker::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  CalibrationReport rep;
  rep.cells.reserve(cells_.size());
  for (const auto& [key, st] : cells_) rep.cells.push_back(st.cell);
  rep.records = records_;
  rep.skipped = skipped_;
  rep.alerts = alerts_;
  rep.ewma_abs_rel_err = ewma_seeded_ ? ewma_ : 0.0;
  rep.min_samples = options_.min_samples;
  return rep;
}

std::uint64_t DriftTracker::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t DriftTracker::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

double DriftTracker::ewma_abs_rel_err() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_seeded_ ? ewma_ : 0.0;
}

void DriftTracker::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
  records_ = 0;
  skipped_ = 0;
  alerts_ = 0;
  ewma_ = 0.0;
  ewma_seeded_ = false;
  alerting_ = false;
}

}  // namespace h2p::obs
