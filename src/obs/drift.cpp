#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

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

SliceKind parse_slice_kind(std::string_view text) {
  if (text == "lead") return SliceKind::kLead;
  if (text == "interior") return SliceKind::kInterior;
  if (text == "tail") return SliceKind::kTail;
  if (text == "solo") return SliceKind::kSolo;
  throw std::invalid_argument("parse_slice_kind: unknown kind \"" +
                              std::string(text) + "\"");
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

// ---- fleet snapshot merging ------------------------------------------------

namespace {

double num_or(const Json& obj, const std::string& key, double fallback) {
  if (!obj.contains(key)) return fallback;
  const Json& v = obj.at(key);
  return v.is_null() ? fallback : v.as_number();
}

/// A calibration report section: either doc["calibration"] (fleet doc), the
/// doc itself when it carries drift cells (a bare --drift-out report), or
/// null.
const Json* calibration_of(const Json& doc) {
  if (doc.contains("calibration")) return &doc.at("calibration");
  if (doc.contains("cells")) return &doc;
  return nullptr;
}

/// Bucket bounds signature of one snapshot histogram entry, for the
/// bounds-must-match check (null le = overflow).
std::vector<double> bounds_of_entry(const Json& entry) {
  std::vector<double> bounds;
  const Json& buckets = entry.at("buckets");
  for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
    bounds.push_back(buckets.at(i).at("le").as_number());
  }
  return bounds;
}

void merge_histogram_entry(Json& merged, const Json& entry,
                           const std::string& name) {
  if (!merged.contains(name)) {
    merged[name] = entry;
    return;
  }
  Json& have = merged[name];
  const std::vector<double> b0 = bounds_of_entry(have);
  const std::vector<double> b1 = bounds_of_entry(entry);
  if (b0 != b1) {
    throw std::runtime_error("merge_snapshots: histogram \"" + name +
                             "\" has mismatched bucket bounds");
  }
  std::vector<std::uint64_t> counts(b0.size() + 1, 0);
  std::uint64_t count = 0;
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const Json* e : {static_cast<const Json*>(&have), &entry}) {
    const Json& buckets = e->at("buckets");
    for (std::size_t i = 0; i < buckets.size() && i < counts.size(); ++i) {
      counts[i] += static_cast<std::uint64_t>(
          buckets.at(i).at("count").as_number());
    }
    const Json& s = e->at("summary");
    const auto n = static_cast<std::uint64_t>(s.at("count").as_number());
    count += n;
    if (n > 0) {
      sum += num_or(s, "mean", 0.0) * static_cast<double>(n);
      mn = std::min(mn, num_or(s, "min", mn));
      mx = std::max(mx, num_or(s, "max", mx));
    }
  }
  Json out = Json::object();
  out["summary"] =
      summary_to_json(summary_from_buckets(b0, counts, count, sum, mn, mx));
  Json buckets = Json::array();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    Json bucket = Json::object();
    bucket["le"] = i < b0.size() ? Json::number(b0[i]) : Json();
    bucket["count"] = Json::number(static_cast<double>(counts[i]));
    buckets.push_back(std::move(bucket));
  }
  out["buckets"] = std::move(buckets);
  merged[name] = std::move(out);
}

Json cell_to_fleet_json(const DriftCell& cell, std::size_t min_samples) {
  Json out = Json::object();
  out["proc"] = Json::number(static_cast<double>(cell.proc));
  out["kind"] = Json::string(to_string(cell.kind));
  out["thermal_bucket"] =
      Json::number(static_cast<double>(cell.thermal_bucket));
  out["count"] = Json::number(static_cast<double>(cell.count));
  out["sum_predicted_ms"] = Json::number(cell.sum_predicted_ms);
  out["sum_executed_ms"] = Json::number(cell.sum_executed_ms);
  out["sum_rel_err"] = Json::number(cell.sum_rel_err);
  out["sum_abs_rel_err"] = Json::number(cell.sum_abs_rel_err);
  out["max_abs_rel_err"] = Json::number(cell.max_abs_rel_err);
  out["correction"] = Json::number(cell.correction());
  out["confidence"] = Json::number(cell.confidence(min_samples));
  out["mean_rel_err"] = Json::number(cell.mean_rel_err());
  out["mean_abs_rel_err"] = Json::number(cell.mean_abs_rel_err());
  return out;
}

DriftCell cell_from_fleet_json(const Json& j) {
  DriftCell cell;
  cell.proc = static_cast<std::size_t>(j.at("proc").as_number());
  cell.kind = parse_slice_kind(j.at("kind").as_string());
  cell.thermal_bucket =
      static_cast<std::size_t>(j.at("thermal_bucket").as_number());
  cell.count = static_cast<std::uint64_t>(j.at("count").as_number());
  cell.sum_predicted_ms = j.at("sum_predicted_ms").as_number();
  cell.sum_executed_ms = j.at("sum_executed_ms").as_number();
  cell.sum_rel_err = j.at("sum_rel_err").as_number();
  cell.sum_abs_rel_err = j.at("sum_abs_rel_err").as_number();
  cell.max_abs_rel_err = j.at("max_abs_rel_err").as_number();
  return cell;
}

}  // namespace

Json merge_snapshots(std::span<const Json> snapshots) {
  if (snapshots.empty()) {
    throw std::invalid_argument("merge_snapshots: need at least one snapshot");
  }

  double leaves = 0.0;
  Json host;  // last-write
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  bool any_registry = false;

  // Calibration merged in struct space: cells join on (proc, kind, bucket)
  // with sums added, so a fleet correction equals the correction one giant
  // tracker over all records would compute.
  std::map<std::tuple<std::size_t, std::uint8_t, std::size_t>, DriftCell>
      cal_cells;
  bool any_calibration = false;
  double cal_records = 0.0, cal_skipped = 0.0, cal_alerts = 0.0;
  double cal_ewma = 0.0;
  std::size_t cal_min_samples = DriftOptions{}.min_samples;

  for (const Json& doc : snapshots) {
    if (doc.contains("fleet")) {
      leaves += doc.at("fleet").at("snapshots").as_number();
    } else {
      leaves += 1.0;
    }
    if (doc.contains("host")) host = doc.at("host");
    if (doc.contains("counters")) {
      any_registry = true;
      for (const auto& [name, v] : doc.at("counters").items()) {
        counters[name] = Json::number(num_or(counters, name, 0.0) +
                                      v.as_number());
      }
    }
    if (doc.contains("gauges")) {
      any_registry = true;
      for (const auto& [name, v] : doc.at("gauges").items()) {
        gauges[name] = v;  // last-write wins
      }
    }
    if (doc.contains("histograms")) {
      any_registry = true;
      for (const auto& [name, entry] : doc.at("histograms").items()) {
        merge_histogram_entry(histograms, entry, name);
      }
    }
    if (const Json* cal = calibration_of(doc)) {
      any_calibration = true;
      cal_records += num_or(*cal, "records", 0.0);
      cal_skipped += num_or(*cal, "skipped", 0.0);
      cal_alerts += num_or(*cal, "alerts", 0.0);
      cal_ewma = num_or(*cal, "ewma_abs_rel_err", cal_ewma);  // last-write
      cal_min_samples = static_cast<std::size_t>(
          num_or(*cal, "min_samples", static_cast<double>(cal_min_samples)));
      if (cal->contains("cells")) {
        const Json& cells = cal->at("cells");
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const DriftCell add = cell_from_fleet_json(cells.at(i));
          DriftCell& cell =
              cal_cells[{add.proc, static_cast<std::uint8_t>(add.kind),
                         add.thermal_bucket}];
          cell.proc = add.proc;
          cell.kind = add.kind;
          cell.thermal_bucket = add.thermal_bucket;
          cell.count += add.count;
          cell.sum_predicted_ms += add.sum_predicted_ms;
          cell.sum_executed_ms += add.sum_executed_ms;
          cell.sum_rel_err += add.sum_rel_err;
          cell.sum_abs_rel_err += add.sum_abs_rel_err;
          cell.max_abs_rel_err =
              std::max(cell.max_abs_rel_err, add.max_abs_rel_err);
        }
      }
    }
  }

  Json out = Json::object();
  Json fleet = Json::object();
  fleet["snapshots"] = Json::number(leaves);
  out["fleet"] = std::move(fleet);
  if (!host.is_null()) out["host"] = std::move(host);
  if (any_registry) {
    out["counters"] = std::move(counters);
    out["gauges"] = std::move(gauges);
    out["histograms"] = std::move(histograms);
  }
  if (any_calibration) {
    Json cal = Json::object();
    cal["schema"] = Json::string("h2p.drift/v1");
    cal["records"] = Json::number(cal_records);
    cal["skipped"] = Json::number(cal_skipped);
    cal["alerts"] = Json::number(cal_alerts);
    cal["ewma_abs_rel_err"] = Json::number(cal_ewma);
    cal["min_samples"] =
        Json::number(static_cast<double>(cal_min_samples));
    double sum_abs = 0.0;
    Json cells = Json::array();
    for (const auto& [key, cell] : cal_cells) {
      sum_abs += cell.sum_abs_rel_err;
      cells.push_back(cell_to_fleet_json(cell, cal_min_samples));
    }
    cal["mean_abs_rel_err"] =
        Json::number(cal_records > 0.0 ? sum_abs / cal_records : 0.0);
    cal["cells"] = std::move(cells);
    out["calibration"] = std::move(cal);
  }
  return out;
}

}  // namespace h2p::obs
