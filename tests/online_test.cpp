#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "sim/online.h"
#include "util/stats.h"

namespace h2p {
namespace {

std::vector<OnlineRequest> burst_stream(const std::vector<ModelId>& ids,
                                        double spacing_ms = 0.0) {
  std::vector<OnlineRequest> stream;
  double t = 0.0;
  for (ModelId id : ids) {
    stream.push_back({&zoo_model(id), t});
    t += spacing_ms;
  }
  return stream;
}

TEST(Online, EmptyStream) {
  const OnlineResult r = run_online(Soc::kirin990(), {});
  EXPECT_EQ(r.replans, 0);
  EXPECT_TRUE(r.completion_ms.empty());
}

TEST(Online, SingleRequest) {
  const auto stream = burst_stream({ModelId::kResNet50});
  const OnlineResult r = run_online(Soc::kirin990(), stream);
  EXPECT_EQ(r.replans, 1);
  ASSERT_EQ(r.completion_ms.size(), 1u);
  EXPECT_GT(r.completion_ms[0], 0.0);
}

TEST(Online, ReplanCountMatchesWindows) {
  const auto stream = burst_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
       ModelId::kAlexNet, ModelId::kMobileNetV2});
  OnlineOptions opts;
  opts.replan_window = 2;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  EXPECT_EQ(r.replans, 3);  // ceil(5 / 2)
  EXPECT_EQ(r.completion_ms.size(), 5u);
}

TEST(Online, CompletionsRespectArrivals) {
  // The second request arrives late: it cannot complete before it arrives
  // plus its own minimum execution time.
  std::vector<OnlineRequest> stream = {
      {&zoo_model(ModelId::kSqueezeNet), 0.0},
      {&zoo_model(ModelId::kSqueezeNet), 500.0},
  };
  OnlineOptions opts;
  opts.replan_window = 1;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  // Completion latency is relative to arrival and must be positive but
  // small (nothing else competes at t=500ms).
  EXPECT_GT(r.completion_ms[1], 0.0);
  EXPECT_LT(r.completion_ms[1], 200.0);
  EXPECT_GE(r.timeline.model_finish_ms(1), 500.0);
}

TEST(Online, PlanningOverheadDelaysRelease) {
  std::vector<OnlineRequest> stream = {{&zoo_model(ModelId::kSqueezeNet), 0.0}};
  OnlineOptions cheap;
  cheap.planning_overhead_ms = 0.0;
  OnlineOptions costly;
  costly.planning_overhead_ms = 50.0;
  const double fast = run_online(Soc::kirin990(), stream, cheap).completion_ms[0];
  const double slow = run_online(Soc::kirin990(), stream, costly).completion_ms[0];
  EXPECT_NEAR(slow - fast, 50.0, 1.0);
}

TEST(Online, LargerWindowsImproveBurstMakespan) {
  // For a burst at t=0, planning over more requests at once exposes more
  // pipelining opportunity than windows of one (which degenerate to
  // model-at-a-time dispatch).
  const auto stream = burst_stream(
      {ModelId::kYOLOv4, ModelId::kBERT, ModelId::kResNet50,
       ModelId::kSqueezeNet, ModelId::kViT, ModelId::kMobileNetV2,
       ModelId::kAlexNet, ModelId::kGoogLeNet});
  OnlineOptions small;
  small.replan_window = 1;
  small.planning_overhead_ms = 0.0;
  OnlineOptions large;
  large.replan_window = 8;
  large.planning_overhead_ms = 0.0;
  const double one = run_online(Soc::kirin990(), stream, small).timeline.makespan_ms();
  const double eight = run_online(Soc::kirin990(), stream, large).timeline.makespan_ms();
  EXPECT_LE(eight, one * 1.02);
}

TEST(Online, WindowsPipelineIntoEachOther) {
  // Two windows on the same processors: the second window should start
  // before the first fully drains (no global barrier between windows).
  // BERT plans span several processors (no NPU), guaranteeing multi-stage
  // pipelines whose drain the next window can overlap.
  const auto stream = burst_stream(
      {ModelId::kBERT, ModelId::kBERT, ModelId::kBERT, ModelId::kBERT});
  OnlineOptions opts;
  opts.replan_window = 2;
  opts.planning_overhead_ms = 0.0;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  double w1_finish = 0.0;
  for (std::size_t slot : {0u, 1u}) {
    w1_finish = std::max(w1_finish, r.timeline.model_finish_ms(slot));
  }
  double w2_start = r.timeline.makespan_ms();
  for (const TaskRecord& t : r.timeline.tasks) {
    if (t.model_idx >= 2) w2_start = std::min(w2_start, t.start_ms);
  }
  EXPECT_LT(w2_start, w1_finish);
}

TEST(OnlineCache, RepeatedWindowHitsCacheWithUnchangedTimeline) {
  // The same 3-model window four times: windows 2..4 must be served from
  // the plan cache, and caching must not change the simulated timeline.
  std::vector<ModelId> window = {ModelId::kResNet50, ModelId::kBERT,
                                 ModelId::kSqueezeNet};
  std::vector<ModelId> ids;
  for (int round = 0; round < 4; ++round) {
    ids.insert(ids.end(), window.begin(), window.end());
  }
  const auto stream = burst_stream(ids, 10.0);

  OnlineOptions cached;
  cached.replan_window = 3;
  cached.planning_overhead_ms = 0.0;
  cached.use_plan_cache = true;
  OnlineOptions uncached = cached;
  uncached.use_plan_cache = false;

  const OnlineResult with = run_online(Soc::kirin990(), stream, cached);
  const OnlineResult without = run_online(Soc::kirin990(), stream, uncached);

  EXPECT_EQ(with.replans, 1);
  EXPECT_EQ(with.cache_hits, 3);
  EXPECT_EQ(without.replans, 4);
  EXPECT_EQ(without.cache_hits, 0);

  // Identical plans -> identical timeline, task for task.
  ASSERT_EQ(with.timeline.tasks.size(), without.timeline.tasks.size());
  for (std::size_t i = 0; i < with.timeline.tasks.size(); ++i) {
    EXPECT_EQ(with.timeline.tasks[i].start_ms, without.timeline.tasks[i].start_ms);
    EXPECT_EQ(with.timeline.tasks[i].end_ms, without.timeline.tasks[i].end_ms);
    EXPECT_EQ(with.timeline.tasks[i].proc_idx, without.timeline.tasks[i].proc_idx);
  }
  ASSERT_EQ(with.completion_ms.size(), without.completion_ms.size());
  for (std::size_t i = 0; i < with.completion_ms.size(); ++i) {
    EXPECT_EQ(with.completion_ms[i], without.completion_ms[i]);
  }
}

TEST(OnlineCache, PermutedRepeatWindowHitsCache) {
  // Second window holds the same models in a different arrival order: the
  // multiset key must still hit, with slots re-bound by model name.
  std::vector<OnlineRequest> stream = {
      {&zoo_model(ModelId::kResNet50), 0.0},
      {&zoo_model(ModelId::kBERT), 5.0},
      {&zoo_model(ModelId::kSqueezeNet), 10.0},
      {&zoo_model(ModelId::kSqueezeNet), 100.0},
      {&zoo_model(ModelId::kResNet50), 105.0},
      {&zoo_model(ModelId::kBERT), 110.0},
  };
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.planning_overhead_ms = 0.0;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  EXPECT_EQ(r.replans, 1);
  EXPECT_EQ(r.cache_hits, 1);
  ASSERT_EQ(r.completion_ms.size(), stream.size());
  for (double c : r.completion_ms) EXPECT_GT(c, 0.0);
}

TEST(OnlineCache, CacheHitOverheadCheaperThanReplanDelaysLess) {
  std::vector<ModelId> window = {ModelId::kSqueezeNet, ModelId::kResNet50};
  std::vector<ModelId> ids;
  for (int round = 0; round < 2; ++round) {
    ids.insert(ids.end(), window.begin(), window.end());
  }
  const auto stream = burst_stream(ids, 0.0);

  OnlineOptions opts;
  opts.replan_window = 2;
  opts.planning_overhead_ms = 40.0;
  opts.cache_hit_overhead_ms = 1.0;
  const OnlineResult cached = run_online(Soc::kirin990(), stream, opts);

  OnlineOptions off = opts;
  off.use_plan_cache = false;
  const OnlineResult uncached = run_online(Soc::kirin990(), stream, off);

  EXPECT_EQ(cached.cache_hits, 1);
  // The second window is released ~39 ms earlier on the cached path.
  EXPECT_LT(cached.completion_ms[2], uncached.completion_ms[2]);
}

}  // namespace
}  // namespace h2p
