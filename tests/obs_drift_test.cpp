// Prediction-drift observability (obs/drift.h): residual math on synthetic
// timelines, the EWMA alert detector, the scorecard JSON and run_online
// integration.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "models/model_zoo.h"
#include "obs/drift.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

using obs::SliceKind;
using obs::SliceRecord;

/// A record whose predicted duration is `pred` and executed duration `exec`
/// (both starting at 0), in the given cell.
SliceRecord make_record(double pred, double exec, std::size_t proc = 0,
                        SliceKind kind = SliceKind::kSolo,
                        std::size_t bucket = 0) {
  SliceRecord rec;
  rec.proc = proc;
  rec.kind = kind;
  rec.thermal_bucket = bucket;
  rec.predicted_start_ms = 0.0;
  rec.predicted_finish_ms = pred;
  rec.executed_start_ms = 0.0;
  rec.executed_finish_ms = exec;
  return rec;
}

TEST(ObsDrift, ClassifyAndKindStrings) {
  EXPECT_EQ(obs::classify_slice(0, 0), SliceKind::kSolo);
  EXPECT_EQ(obs::classify_slice(0, 3), SliceKind::kLead);
  EXPECT_EQ(obs::classify_slice(1, 3), SliceKind::kInterior);
  EXPECT_EQ(obs::classify_slice(2, 3), SliceKind::kInterior);
  EXPECT_EQ(obs::classify_slice(3, 3), SliceKind::kTail);
  EXPECT_STREQ(obs::to_string(SliceKind::kLead), "lead");
  EXPECT_STREQ(obs::to_string(SliceKind::kInterior), "interior");
  EXPECT_STREQ(obs::to_string(SliceKind::kTail), "tail");
  EXPECT_STREQ(obs::to_string(SliceKind::kSolo), "solo");
}

TEST(ObsDrift, CalibrationReportExactRatios) {
  // Exact arithmetic: a cell's correction is literally
  // sum(executed) / sum(predicted) over its records.
  std::vector<SliceRecord> records;
  records.push_back(make_record(10.0, 12.0));  // rel_err +0.2
  {
    SliceRecord r = make_record(0.0, 0.0);  // second solo slice, offset times
    r.predicted_start_ms = 10.0;
    r.predicted_finish_ms = 30.0;  // duration 20
    r.executed_start_ms = 12.0;
    r.executed_finish_ms = 36.0;  // duration 24, rel_err +0.2
    records.push_back(r);
  }
  records.push_back(
      make_record(8.0, 6.0, /*proc=*/1, SliceKind::kLead));  // rel_err -0.25
  records.push_back(make_record(0.0, 5.0));                  // skipped: pred 0

  obs::DriftOptions opts;
  opts.min_samples = 2;
  const obs::CalibrationReport rep = calibration_report(records, opts);
  EXPECT_EQ(rep.records, 3u);
  EXPECT_EQ(rep.skipped, 1u);
  EXPECT_EQ(rep.alerts, 0u);
  ASSERT_EQ(rep.cells.size(), 2u);

  // Cells are sorted by (proc, kind, thermal_bucket).
  const obs::DriftCell& solo = rep.cells[0];
  EXPECT_EQ(solo.proc, 0u);
  EXPECT_EQ(solo.kind, SliceKind::kSolo);
  EXPECT_EQ(solo.count, 2u);
  EXPECT_DOUBLE_EQ(solo.sum_predicted_ms, 30.0);
  EXPECT_DOUBLE_EQ(solo.sum_executed_ms, 36.0);
  EXPECT_DOUBLE_EQ(solo.correction(), 1.2);  // 36 / 30, exact
  EXPECT_DOUBLE_EQ(solo.mean_rel_err(), 0.2);
  EXPECT_DOUBLE_EQ(solo.mean_abs_rel_err(), 0.2);
  EXPECT_DOUBLE_EQ(solo.max_abs_rel_err, 0.2);
  EXPECT_DOUBLE_EQ(solo.confidence(rep.min_samples), 0.5);  // 2 / (2 + 2)

  const obs::DriftCell& lead = rep.cells[1];
  EXPECT_EQ(lead.proc, 1u);
  EXPECT_EQ(lead.kind, SliceKind::kLead);
  EXPECT_DOUBLE_EQ(lead.correction(), 0.75);  // 6 / 8, exact
  EXPECT_DOUBLE_EQ(lead.mean_rel_err(), -0.25);
  EXPECT_DOUBLE_EQ(lead.confidence(rep.min_samples), 1.0 / 3.0);

  // Run-level mean |rel_err| = (0.2 + 0.2 + 0.25) / 3.
  EXPECT_DOUBLE_EQ(rep.mean_abs_rel_err(), 0.65 / 3.0);
}

TEST(ObsDrift, TrackerAlertFiresOnceAndRearmsWithHysteresis) {
  obs::Registry registry;
  registry.set_enabled(true);
  obs::Log log;
  std::ostringstream sink;
  log.set_sink_stream(&sink);  // default level warn: alerts pass
  obs::Tracer tracer;
  tracer.set_enabled(true);

  obs::DriftOptions opts;
  opts.ewma_alpha = 1.0;  // EWMA == current |rel_err|: exact thresholds
  opts.alert_threshold = 0.25;
  opts.rearm_ratio = 0.8;  // re-arm below 0.2
  opts.min_samples = 2;
  obs::DriftTracker tracker(opts, &registry, &log, &tracer);

  tracker.observe(make_record(10.0, 15.0));  // |0.5| but records < min
  EXPECT_EQ(tracker.alerts(), 0u);
  tracker.observe(make_record(10.0, 15.0));  // fires
  EXPECT_EQ(tracker.alerts(), 1u);
  tracker.observe(make_record(10.0, 15.0));  // latched: no storm
  EXPECT_EQ(tracker.alerts(), 1u);
  tracker.observe(make_record(10.0, 11.0));  // |0.1| < 0.2: re-arms
  EXPECT_EQ(tracker.alerts(), 1u);
  tracker.observe(make_record(10.0, 15.0));  // fires again
  EXPECT_EQ(tracker.alerts(), 2u);

  EXPECT_EQ(tracker.records(), 5u);
  EXPECT_DOUBLE_EQ(tracker.ewma_abs_rel_err(), 0.5);
  EXPECT_EQ(registry.counter("drift.alerts").value(), 2u);
  EXPECT_EQ(registry.counter("drift.records").value(), 5u);
  EXPECT_DOUBLE_EQ(registry.gauge("drift.ewma_abs_rel_err").value(), 0.5);

  log.set_sink_stream(nullptr);
  std::size_t warn_lines = 0;
  std::string line;
  std::istringstream in(sink.str());
  while (std::getline(in, line)) {
    if (line.find("drift.alert") != std::string::npos) ++warn_lines;
  }
  EXPECT_EQ(warn_lines, 2u);
  std::size_t instants = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.instant && e.name == "online.drift_alert") ++instants;
  }
  EXPECT_EQ(instants, 2u);

  tracker.reset();
  EXPECT_EQ(tracker.records(), 0u);
  EXPECT_EQ(tracker.alerts(), 0u);
  EXPECT_TRUE(tracker.cells().empty());
}

TEST(ObsDrift, CalibrationJsonFields) {
  std::vector<SliceRecord> records = {make_record(10.0, 12.0),
                                      make_record(8.0, 6.0, 1, SliceKind::kLead),
                                      make_record(0.0, 1.0)};
  const obs::CalibrationReport rep = calibration_report(records);
  const Json j = calibration_report_to_json(rep);
  EXPECT_EQ(j.at("schema").as_string(), "h2p.drift/v1");
  EXPECT_EQ(j.at("records").as_number(), 2.0);
  EXPECT_EQ(j.at("skipped").as_number(), 1.0);
  ASSERT_EQ(j.at("cells").size(), 2u);
  const Json& cell = j.at("cells").at(0);  // (p0, solo, b0)
  EXPECT_EQ(cell.at("kind").as_string(), "solo");
  EXPECT_EQ(cell.at("sum_predicted_ms").as_number(), 10.0);
  EXPECT_EQ(cell.at("sum_executed_ms").as_number(), 12.0);
  EXPECT_EQ(cell.at("correction").as_number(), 12.0 / 10.0);
}

std::vector<OnlineRequest> drift_stream() {
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
                     ModelId::kMobileNetV2, ModelId::kGoogLeNet,
                     ModelId::kAlexNet}) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  return stream;
}

TEST(ObsDrift, OnlineRecordsAlignWithTimeline) {
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.drift_tracking = true;
  const OnlineResult r = run_online(Soc::kirin990(), drift_stream(), opts);

  ASSERT_EQ(r.slice_records.size(), r.timeline.tasks.size());
  std::size_t windowed = 0;
  for (std::size_t i = 0; i < r.slice_records.size(); ++i) {
    const SliceRecord& rec = r.slice_records[i];
    const TaskRecord& task = r.timeline.tasks[i];
    EXPECT_EQ(rec.model_idx, task.model_idx);
    EXPECT_EQ(rec.seq_in_model, task.seq_in_model);
    EXPECT_EQ(rec.executed_start_ms, task.start_ms);
    EXPECT_EQ(rec.executed_finish_ms, task.end_ms);
    EXPECT_EQ(rec.migrated, rec.proc != task.proc_idx);
    EXPECT_EQ(rec.weather_idx, -1);  // fault-free stream
    ASSERT_LT(rec.window, r.windows.size());
  }
  for (const WindowStats& ws : r.windows) {
    EXPECT_GT(ws.predicted_makespan_ms, 0.0);
    windowed += ws.drift_slices;
  }
  EXPECT_EQ(windowed, r.slice_records.size());
  EXPECT_EQ(r.drift_report.records + r.drift_report.skipped,
            r.slice_records.size());
  EXPECT_DOUBLE_EQ(r.drift_mean_abs_rel_err,
                   r.drift_report.mean_abs_rel_err());
}

TEST(ObsDrift, OnlineSerialAndAsyncSliceRecordsIdentical) {
  OnlineOptions serial;
  serial.replan_window = 3;
  serial.drift_tracking = true;
  const OnlineResult a = run_online(Soc::kirin990(), drift_stream(), serial);

  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  const OnlineResult b = run_online(Soc::kirin990(), drift_stream(), async);

  ASSERT_EQ(a.slice_records.size(), b.slice_records.size());
  for (std::size_t i = 0; i < a.slice_records.size(); ++i) {
    const SliceRecord& ra = a.slice_records[i];
    const SliceRecord& rb = b.slice_records[i];
    EXPECT_EQ(ra.proc, rb.proc);
    EXPECT_EQ(ra.kind, rb.kind);
    EXPECT_EQ(ra.predicted_start_ms, rb.predicted_start_ms);  // bit-identical
    EXPECT_EQ(ra.predicted_finish_ms, rb.predicted_finish_ms);
    EXPECT_EQ(ra.executed_start_ms, rb.executed_start_ms);
    EXPECT_EQ(ra.executed_finish_ms, rb.executed_finish_ms);
  }
  EXPECT_EQ(a.drift_alerts, b.drift_alerts);
  EXPECT_EQ(calibration_report_to_json(a.drift_report).dump(),
            calibration_report_to_json(b.drift_report).dump());
}

TEST(ObsDrift, ThermalStormTriggersDriftAlert) {
  // A thermal storm slows the executed timeline against the fault-free
  // window-isolated prediction: positive residuals that a low-threshold
  // detector must flag, with the storm's provenance on the records.
  const Soc soc = Soc::kirin990();
  WeatherEvent storm;
  storm.kind = WeatherKind::kThermalStorm;
  storm.begin_ms = 0.0;
  storm.duration_ms = 1e7;  // covers the whole stream
  storm.severity = 0.9;
  const FaultScript script = FaultScript::with_weather(soc, {storm});

  std::vector<OnlineRequest> stream;
  for (int rep = 0; rep < 3; ++rep) {
    for (ModelId id :
         {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}) {
      stream.push_back({&zoo_model(id), 0.0});
    }
  }
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.faults = &script;
  opts.drift_tracking = true;
  opts.drift.alert_threshold = 0.05;
  opts.drift.min_samples = 4;
  const OnlineResult r = run_online(soc, stream, opts);

  EXPECT_GE(r.drift_alerts, 1u);
  EXPECT_EQ(r.drift_alerts, r.drift_report.alerts);
  EXPECT_GT(r.drift_mean_abs_rel_err, 0.0);
  ASSERT_FALSE(r.slice_records.empty());
  std::size_t covered = 0;
  for (const SliceRecord& rec : r.slice_records) {
    if (rec.weather_idx == 0) ++covered;
  }
  EXPECT_GT(covered, 0u);
}

}  // namespace
}  // namespace h2p
