// Fault-tolerant online serving: deterministic replay of scripted and
// sampled fault environments (serial vs async, all SoCs), the backoff /
// declare-dead / rejoin ladder, degraded replanning from cached healthy
// plans, and the safety invariant that no task ever *starts* on a dropped
// processor (checked post hoc on every fault timeline).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exec/compiled_plan.h"
#include "exec/plan_cache.h"
#include "models/model_zoo.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<OnlineRequest> window_stream(
    const std::vector<ModelId>& window, int repeats, double gap_ms,
    double deadline_ms = kInf) {
  std::vector<OnlineRequest> stream;
  for (int r = 0; r < repeats; ++r) {
    for (ModelId id : window) {
      OnlineRequest req;
      req.model = &zoo_model(id);
      req.arrival_ms = static_cast<double>(stream.size()) * gap_ms;
      req.deadline_ms = deadline_ms;
      stream.push_back(req);
    }
  }
  return stream;
}

/// Bit-identical equality over every modeled number the fault layer added
/// on top of the PR-3 contract.
void expect_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.timeline.tasks.size(), b.timeline.tasks.size());
  for (std::size_t i = 0; i < a.timeline.tasks.size(); ++i) {
    const TaskRecord& ta = a.timeline.tasks[i];
    const TaskRecord& tb = b.timeline.tasks[i];
    EXPECT_EQ(ta.model_idx, tb.model_idx);
    EXPECT_EQ(ta.seq_in_model, tb.seq_in_model);
    EXPECT_EQ(ta.proc_idx, tb.proc_idx);
    EXPECT_EQ(ta.start_ms, tb.start_ms);
    EXPECT_EQ(ta.end_ms, tb.end_ms);
  }
  ASSERT_EQ(a.completion_ms.size(), b.completion_ms.size());
  for (std::size_t i = 0; i < a.completion_ms.size(); ++i) {
    EXPECT_EQ(a.completion_ms[i], b.completion_ms[i]);
    EXPECT_EQ(a.admitted[i], b.admitted[i]);
  }
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  EXPECT_EQ(a.degraded_hits, b.degraded_hits);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.deferred_requests, b.deferred_requests);
  ASSERT_EQ(a.declared_dead_ms.size(), b.declared_dead_ms.size());
  for (std::size_t p = 0; p < a.declared_dead_ms.size(); ++p) {
    EXPECT_EQ(a.declared_dead_ms[p], b.declared_dead_ms[p]);
  }
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].source, b.windows[w].source);
    EXPECT_EQ(a.windows[w].arrival_ms, b.windows[w].arrival_ms);
    EXPECT_EQ(a.windows[w].release_ms, b.windows[w].release_ms);
    EXPECT_EQ(a.windows[w].planning_ms, b.windows[w].planning_ms);
    EXPECT_EQ(a.windows[w].avail_mask, b.windows[w].avail_mask);
    EXPECT_EQ(a.windows[w].backoff_wait_ms, b.windows[w].backoff_wait_ms);
    EXPECT_EQ(a.windows[w].shed, b.windows[w].shed);
    EXPECT_EQ(a.windows[w].deferred, b.windows[w].deferred);
    EXPECT_EQ(a.windows[w].deadline_misses, b.windows[w].deadline_misses);
    EXPECT_EQ(a.windows[w].hidden_ms, b.windows[w].hidden_ms);
    EXPECT_EQ(a.windows[w].charged_ms, b.windows[w].charged_ms);
    EXPECT_EQ(a.windows[w].thermal_bucket, b.windows[w].thermal_bucket);
    EXPECT_EQ(a.windows[w].bus_factor, b.windows[w].bus_factor);
  }
  EXPECT_EQ(a.planning_hidden_ms, b.planning_hidden_ms);
  EXPECT_EQ(a.planning_charged_ms, b.planning_charged_ms);
  EXPECT_EQ(a.bucket_transitions, b.bucket_transitions);
  EXPECT_EQ(a.final_thermal_bucket, b.final_thermal_bucket);
  EXPECT_EQ(a.bus_degraded_windows, b.bus_degraded_windows);
  EXPECT_EQ(a.weather_onsets, b.weather_onsets);
}

void expect_safe(const OnlineResult& r, const FaultScript& faults) {
  const auto violation = verify_timeline_against_faults(r.timeline, faults);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

Soc soc_by_name(const std::string& name) {
  if (name == "kirin990") return Soc::kirin990();
  if (name == "snapdragon778g") return Soc::snapdragon778g();
  return Soc::snapdragon870();
}

class OnlineFaultSocs : public ::testing::TestWithParam<const char*> {};

TEST_P(OnlineFaultSocs, ScriptedFaultReplayIsDeterministic) {
  const Soc soc = soc_by_name(GetParam());
  // NPU (proc 0) transient drop-out, GPU (proc 2) slowdown, CPU_Small
  // (proc 3) permanent drop-out late in the stream.
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 0, 30.0, 60.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 20.0, 80.0, 0.6},
      FaultEvent{FaultKind::kDropout, 3, 70.0, kInf, 1.0},
  });
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 4, 5.0);

  OnlineOptions serial;
  serial.replan_window = 3;
  serial.warm_start = true;
  serial.faults = &faults;
  const OnlineResult base = run_online(soc, stream, serial);
  expect_safe(base, faults);
  for (double c : base.completion_ms) EXPECT_GE(c, 0.0);

  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    OnlineOptions async = serial;
    async.pool = &pool;
    async.async_planning = true;
    const OnlineResult r = run_online(soc, stream, async);
    expect_identical(base, r);
    expect_safe(r, faults);
  }
}

TEST_P(OnlineFaultSocs, SampledFaultReplayIsDeterministic) {
  const Soc soc = soc_by_name(GetParam());
  const auto stream = window_stream(
      {ModelId::kMobileNetV2, ModelId::kGoogLeNet, ModelId::kAlexNet}, 3, 8.0);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const FaultScript faults = FaultScript::sample(soc, seed);
    OnlineOptions opts;
    opts.replan_window = 3;
    opts.faults = &faults;
    const OnlineResult base = run_online(soc, stream, opts);
    expect_safe(base, faults);
    // Same seed replays bit-identically...
    expect_identical(base, run_online(soc, stream, opts));
    // ...including with the loop pipelined onto a pool.
    ThreadPool pool(4);
    OnlineOptions async = opts;
    async.pool = &pool;
    async.async_planning = true;
    const OnlineResult r = run_online(soc, stream, async);
    expect_identical(base, r);
    expect_safe(r, faults);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSocs, OnlineFaultSocs,
                         ::testing::Values("kirin990", "snapdragon778g",
                                           "snapdragon870"));

TEST(OnlineFault, WeatheredStreamMatchesPinnedTotals) {
  // Pins the weathered serving output in tier-1: sampled per-processor
  // faults plus correlated weather, the closed thermal loop and deadline
  // deferral on Kirin990.  Any change to how the fault script is queried
  // (or to anything downstream of it) that moves a modeled number fails
  // here.  The constants were recorded from the linear-scan fault queries.
  const Soc soc = Soc::kirin990();
  FaultSamplerOptions sample;
  sample.horizon_ms = 400.0;
  sample.mean_weather_gap_ms = 50.0;
  const FaultScript faults = FaultScript::sample(soc, 11, sample);
  ASSERT_FALSE(faults.weather().empty());
  auto stream = window_stream({ModelId::kMobileNetV2, ModelId::kGoogLeNet,
                               ModelId::kResNet50, ModelId::kAlexNet},
                              10, 6.0);
  for (OnlineRequest& req : stream) req.deadline_ms = req.arrival_ms + 32.0;
  OnlineOptions opts;
  opts.replan_window = 4;
  opts.use_plan_cache = true;
  opts.warm_start = true;
  opts.faults = &faults;
  opts.thermal_loop = true;
  opts.thermal.time_scale = 100.0;
  opts.deadline_policy = DeadlinePolicy::kDefer;
  const OnlineResult r = run_online(soc, stream, opts);
  expect_safe(r, faults);
  double total_ms = 0.0;
  for (const double c : r.completion_ms) total_ms += c;
  EXPECT_EQ(total_ms, 1505.3799032356151);
  EXPECT_EQ(r.shed_requests, 8u);
  EXPECT_EQ(r.deferred_requests, 3u);
}

TEST(OnlineFault, HealthyScriptMatchesNoFaultRun) {
  // A fault pointer with no events is the same run as no fault layer at
  // all — the layer is pay-for-what-you-use.
  const Soc soc = Soc::kirin990();
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 2, 5.0);
  OnlineOptions plain;
  plain.replan_window = 3;
  const OnlineResult base = run_online(soc, stream, plain);
  const FaultScript empty;
  OnlineOptions faulty = plain;
  faulty.faults = &empty;
  expect_identical(base, run_online(soc, stream, faulty));
}

TEST(OnlineFault, NpuPermanentDropoutDegradedReplanAndCompletion) {
  // The flagship scenario: the NPU dies for good mid-stream.  Later
  // repeats of an already-served window must replan *degraded* from the
  // cached healthy plan, the plan cache must keep healthy and degraded
  // entries apart (the mask is in the key), and every admitted request
  // must still complete.
  const Soc soc = Soc::kirin990();
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 30.0, kInf, 1.0}});
  // Four identical windows; w0/w1 plan healthy, w2/w3 after the drop-out.
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 4, 5.0);

  OnlineOptions opts;
  opts.replan_window = 3;
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);

  expect_safe(r, faults);
  ASSERT_EQ(r.windows.size(), 4u);
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  EXPECT_EQ(r.windows[0].avail_mask, full);
  EXPECT_EQ(r.windows[0].source, WindowSource::kColdReplan);
  EXPECT_EQ(r.windows[1].avail_mask, full);
  EXPECT_EQ(r.windows[1].source, WindowSource::kCacheHit);
  // w2 probes after t=30: backoff ladder runs dry, NPU is declared dead,
  // and the window warm-starts degraded from w0's cached healthy plan.
  EXPECT_EQ(r.windows[2].avail_mask, full & ~1ull);
  EXPECT_EQ(r.windows[2].source, WindowSource::kDegradedReplan);
  EXPECT_GT(r.windows[2].backoff_wait_ms, 0.0);
  // w3 hits the degraded entry the mask-keyed cache now holds.
  EXPECT_EQ(r.windows[3].avail_mask, full & ~1ull);
  EXPECT_EQ(r.windows[3].source, WindowSource::kCacheHit);

  EXPECT_EQ(r.degraded_hits, 1);
  EXPECT_EQ(r.cache_hits, 2);
  EXPECT_EQ(r.replans, 2);
  EXPECT_GT(r.declared_dead_ms[0], 30.0);
  for (std::size_t p = 1; p < soc.num_processors(); ++p) {
    EXPECT_EQ(r.declared_dead_ms[p], -1.0);
  }
  // Every request was admitted and completed despite the drop-out.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(r.admitted[i]) << "request " << i;
    EXPECT_GE(r.completion_ms[i], 0.0) << "request " << i;
  }
  EXPECT_TRUE(std::isfinite(r.timeline.makespan_ms()));
  // No task ever runs on the NPU after the permanent drop-out (stronger
  // than the start-side checker: migrated work may not linger either).
  for (const TaskRecord& t : r.timeline.tasks) {
    if (t.proc_idx == 0) {
      EXPECT_LE(t.end_ms, 30.0 + 1e-6);
    }
  }

  // The whole scenario replays bit-identically under async planning.
  ThreadPool pool(4);
  OnlineOptions async = opts;
  async.pool = &pool;
  async.async_planning = true;
  expect_identical(r, run_online(soc, stream, async));
}

TEST(OnlineFault, TransientOutageResolvedByBackoff) {
  // A short outage is outlasted by the capped exponential backoff: the
  // window stalls, then plans against the *full* SoC — no degraded replan,
  // no processor declared dead.
  const Soc soc = Soc::kirin990();
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 10.0, 14.0, 1.0}});
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 1, 5.0);

  OnlineOptions opts;
  opts.replan_window = 3;
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);

  expect_safe(r, faults);
  ASSERT_EQ(r.windows.size(), 1u);
  // Window arrival is 10.0 (last request); probes at 10 and 12 find the
  // NPU dark, the third at 10+2+4=16 finds it recovered.
  EXPECT_DOUBLE_EQ(r.windows[0].backoff_wait_ms, 6.0);
  EXPECT_EQ(r.windows[0].avail_mask, (1ull << soc.num_processors()) - 1);
  EXPECT_EQ(r.degraded_hits, 0);
  for (const double d : r.declared_dead_ms) EXPECT_EQ(d, -1.0);
}

TEST(OnlineFault, DeclaredDeadThenRejoinsOnRecovery) {
  // An outage longer than the whole backoff ladder gets the processor
  // declared dead (planning proceeds without it); a later window re-probes
  // and the processor rejoins the moment it reports available.
  const Soc soc = Soc::kirin990();
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 10.0, 100.0, 1.0}});
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}) {
    stream.push_back({&zoo_model(id), 10.0});
  }
  for (ModelId id : {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}) {
    stream.push_back({&zoo_model(id), 120.0});
  }

  OnlineOptions opts;
  opts.replan_window = 3;
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);

  expect_safe(r, faults);
  ASSERT_EQ(r.windows.size(), 2u);
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  // Ladder: probes at 10, 12, 16, gives up at 24 -> declared dead there.
  EXPECT_DOUBLE_EQ(r.declared_dead_ms[0], 24.0);
  EXPECT_EQ(r.windows[0].avail_mask, full & ~1ull);
  EXPECT_DOUBLE_EQ(r.windows[0].backoff_wait_ms, 14.0);
  // By the second window the outage is over: rejoined, planned healthy.
  EXPECT_EQ(r.windows[1].avail_mask, full);
  EXPECT_EQ(r.windows[1].backoff_wait_ms, 0.0);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_GE(r.completion_ms[i], 0.0);
  }
}

TEST(OnlineFault, WarmStartStaysWithinEnvironment) {
  // find_near requires identical knobs (and thus identical availability
  // mask): a window planned while a processor is down must not warm-start
  // from a healthy near-miss plan, which lives in another environment.
  const Soc soc = Soc::kirin990();
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  const PlannerOptions knobs;
  const auto models_of = [](std::initializer_list<ModelId> ids) {
    std::vector<const Model*> models;
    for (const ModelId id : ids) models.push_back(&zoo_model(id));
    return models;
  };
  const std::vector<const Model*> window =
      models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet});
  // The near miss (AlexNet -> SqueezeNet), planned healthy.
  const std::vector<const Model*> near =
      models_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet});
  const exec::PlanKey healthy_key =
      exec::make_key(soc, near, knobs, {full, 0});
  exec::PlanCache cache(8);
  const StaticEvaluator eval(soc, near);
  cache.insert(healthy_key,
               exec::compile(Hetero2PipePlanner(eval).plan().plan, eval));

  // Control: the same window in the healthy environment is a near miss.
  const exec::PlanKey healthy_window =
      exec::make_key(soc, window, knobs, {full, 0});
  ASSERT_TRUE(healthy_key.near(healthy_window));
  ASSERT_NE(cache.peek_near(healthy_window), nullptr);

  // The NPU down: the serving loop keys the window on the surviving
  // processors' SoC and the degraded mask.  Neither the mask alone nor the
  // view with it reaches the healthy entry.
  std::vector<Processor> survivors(soc.processors().begin() + 1,
                                   soc.processors().end());
  const Soc view(soc.name(), std::move(survivors), soc.bus_bw_gbps(),
                 soc.mem_capacity_bytes(), soc.available_bytes(),
                 soc.mem_states());
  for (const exec::PlanKey& degraded :
       {exec::make_key(soc, window, knobs, {full & ~1ull, 0}),
        exec::make_key(view, window, knobs, {full & ~1ull, 0})}) {
    EXPECT_FALSE(healthy_key.near(degraded));
    EXPECT_EQ(cache.find_near(degraded), nullptr);
  }

  // End to end, the degraded window replans cold.
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 0.0, kInf, 1.0}});
  std::vector<OnlineRequest> stream;
  for (const Model* m : window) stream.push_back({m, 0.0});
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.warm_start = true;
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);
  expect_safe(r, faults);
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.warm_hits, 0);
  EXPECT_EQ(r.windows[0].source, WindowSource::kColdReplan);
}

}  // namespace
}  // namespace h2p
