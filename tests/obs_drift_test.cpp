// Prediction capture (OnlineOptions::drift_tracking): the per-slice
// predicted-vs-executed records and per-window predicted makespans that
// run_online hands back, and what perfbench's modeled run reads of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "models/model_zoo.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

using obs::SliceRecord;

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
  for (std::size_t i = 0; i < r.slice_records.size(); ++i) {
    const SliceRecord& rec = r.slice_records[i];
    const TaskRecord& task = r.timeline.tasks[i];
    EXPECT_EQ(rec.model_idx, task.model_idx);
    EXPECT_EQ(rec.seq_in_model, task.seq_in_model);
    EXPECT_EQ(rec.executed_start_ms, task.start_ms);
    EXPECT_EQ(rec.executed_finish_ms, task.end_ms);
    EXPECT_EQ(rec.migrated, rec.proc != task.proc_idx);
    ASSERT_LT(rec.window, r.windows.size());
  }
  for (const WindowStats& ws : r.windows) {
    EXPECT_GT(ws.predicted_makespan_ms, 0.0);
  }
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
    EXPECT_EQ(ra.window, rb.window);
    EXPECT_EQ(ra.proc, rb.proc);
    EXPECT_EQ(ra.predicted_start_ms, rb.predicted_start_ms);  // bit-identical
    EXPECT_EQ(ra.predicted_finish_ms, rb.predicted_finish_ms);
    EXPECT_EQ(ra.executed_start_ms, rb.executed_start_ms);
    EXPECT_EQ(ra.executed_finish_ms, rb.executed_finish_ms);
  }
}

// perfbench's modeled run maps each slot to its window through
// `SliceRecord::{window, model_idx}` and grades each window's plan by
// `WindowStats::predicted_makespan_ms`.  Pin both on a stream where
// faults and deferral reshape the windows: a deferred request moves to a
// later window, so window membership is no longer arrival order chunked.
TEST(ObsDrift, RecordsPinWindowSlotsAndPredictedMakespan) {
  const Soc soc = Soc::kirin990();
  // The NPU drops out for the first 5 ms; a deadline the degraded SoC
  // provably cannot meet defers the first request past the outage.
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 0.0, 5.0, 1.0}});
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
                     ModelId::kMobileNetV2, ModelId::kGoogLeNet,
                     ModelId::kAlexNet, ModelId::kResNet50}) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size())});
  }
  stream[0].deadline_ms = 30.0;

  OnlineOptions opts;
  opts.replan_window = 2;
  opts.faults = &faults;
  opts.deadline_policy = DeadlinePolicy::kDefer;
  opts.fault_tolerance.initial_backoff_ms = 0.5;
  opts.fault_tolerance.max_backoff_ms = 1.0;
  opts.fault_tolerance.max_retries = 2;
  opts.drift_tracking = true;
  const OnlineResult r = run_online(soc, stream, opts);
  ASSERT_GE(r.deferred_requests, 1u);
  ASSERT_GE(r.windows.size(), 2u);
  ASSERT_EQ(r.slice_records.size(), r.timeline.tasks.size());

  // Every record names an executed window, and window w's records cover
  // the slot run [slot_begin[w], slot_end[w]), which starts where window
  // w - 1's run ended.
  std::vector<std::size_t> slot_begin(r.windows.size(), 0);
  std::vector<std::size_t> slot_end(r.windows.size(), 0);
  std::vector<bool> seen(r.windows.size(), false);
  std::vector<double> max_finish(r.windows.size(), 0.0);
  std::size_t prev_window = 0;
  for (const SliceRecord& rec : r.slice_records) {
    ASSERT_LT(rec.window, r.windows.size());
    EXPECT_GE(rec.window, prev_window);  // windows appear in order
    prev_window = rec.window;
    if (!seen[rec.window]) {
      seen[rec.window] = true;
      slot_begin[rec.window] = rec.model_idx;
      slot_end[rec.window] = rec.model_idx + 1;
    }
    slot_begin[rec.window] = std::min(slot_begin[rec.window], rec.model_idx);
    slot_end[rec.window] = std::max(slot_end[rec.window], rec.model_idx + 1);
    max_finish[rec.window] =
        std::max(max_finish[rec.window], rec.predicted_finish_ms);
  }
  std::size_t next_slot = 0;
  for (std::size_t w = 0; w < r.windows.size(); ++w) {
    ASSERT_TRUE(seen[w]) << "window " << w << " has no records";
    EXPECT_EQ(slot_begin[w], next_slot) << "window " << w;
    next_slot = slot_end[w];
  }
  EXPECT_EQ(next_slot, r.timeline.num_models);
  // The runs are disjoint by the checks above; no slot inside one is
  // left without records.
  std::vector<bool> slot_seen(r.timeline.num_models, false);
  for (const SliceRecord& rec : r.slice_records) slot_seen[rec.model_idx] = true;
  EXPECT_EQ(std::count(slot_seen.begin(), slot_seen.end(), true),
            static_cast<std::ptrdiff_t>(r.timeline.num_models));

  // Offsetting by the release is monotone under rounding, so the latest
  // offset finish is exactly the offset isolated makespan.
  for (std::size_t w = 0; w < r.windows.size(); ++w) {
    EXPECT_EQ(r.windows[w].release_ms + r.windows[w].predicted_makespan_ms,
              max_finish[w])
        << "window " << w;
  }
}

}  // namespace
}  // namespace h2p
