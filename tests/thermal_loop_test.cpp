// Closed thermal loop: bucket hysteresis never flaps, bucket-derated SoCs
// are pure and cache-keyed, the serving loop derives buckets from executed
// utilization deterministically (serial == async bit for bit, prefetches
// keyed on the *dynamic* bucket), and a correlated NPU+GPU storm still
// completes every admitted request.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exec/compiled_plan.h"
#include "exec/plan_cache.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "soc/cost_model.h"
#include "soc/thermal.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<OnlineRequest> window_stream(const std::vector<ModelId>& window,
                                         int repeats, double gap_ms) {
  std::vector<OnlineRequest> stream;
  for (int r = 0; r < repeats; ++r) {
    for (ModelId id : window) {
      OnlineRequest req;
      req.model = &zoo_model(id);
      req.arrival_ms = static_cast<double>(stream.size()) * gap_ms;
      stream.push_back(req);
    }
  }
  return stream;
}

/// Bit-identical equality including the thermal-loop / weather accounting
/// this PR added on top of the fault layer's contract.
void expect_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.timeline.tasks.size(), b.timeline.tasks.size());
  for (std::size_t i = 0; i < a.timeline.tasks.size(); ++i) {
    EXPECT_EQ(a.timeline.tasks[i].proc_idx, b.timeline.tasks[i].proc_idx);
    EXPECT_EQ(a.timeline.tasks[i].start_ms, b.timeline.tasks[i].start_ms);
    EXPECT_EQ(a.timeline.tasks[i].end_ms, b.timeline.tasks[i].end_ms);
  }
  ASSERT_EQ(a.completion_ms.size(), b.completion_ms.size());
  for (std::size_t i = 0; i < a.completion_ms.size(); ++i) {
    EXPECT_EQ(a.completion_ms[i], b.completion_ms[i]);
  }
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  EXPECT_EQ(a.degraded_hits, b.degraded_hits);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].source, b.windows[w].source);
    EXPECT_EQ(a.windows[w].release_ms, b.windows[w].release_ms);
    EXPECT_EQ(a.windows[w].avail_mask, b.windows[w].avail_mask);
    EXPECT_EQ(a.windows[w].thermal_bucket, b.windows[w].thermal_bucket);
    EXPECT_EQ(a.windows[w].bus_factor, b.windows[w].bus_factor);
  }
  EXPECT_EQ(a.bucket_transitions, b.bucket_transitions);
  EXPECT_EQ(a.final_thermal_bucket, b.final_thermal_bucket);
  EXPECT_EQ(a.bus_degraded_windows, b.bus_degraded_windows);
  EXPECT_EQ(a.weather_onsets, b.weather_onsets);
}

Soc soc_by_name(const std::string& name) {
  if (name == "kirin990") return Soc::kirin990();
  if (name == "snapdragon778g") return Soc::snapdragon778g();
  return Soc::snapdragon870();
}

// ---------------------------------------------------------------------------
// Hysteresis: the bucket is a staircase, never a flip-flop.

TEST(ThermalLoop, HysteresisNeverFlapsOnOscillatingUtilization) {
  // Throttle factor oscillating tightly around the derate-0.2 boundary
  // flaps the raw coarse bucket between 2 and 3 every sample...
  EXPECT_NE(coarse_thermal_bucket(0.795), coarse_thermal_bucket(0.805));
  // ...but with hysteresis the bucket settles once and never moves again.
  std::size_t bucket = thermal_bucket_with_hysteresis(0, 0.795, 0.03);
  const std::size_t settled = bucket;
  for (int i = 0; i < 100; ++i) {
    const double worst = (i % 2 == 0) ? 0.805 : 0.795;
    bucket = thermal_bucket_with_hysteresis(bucket, worst, 0.03);
    EXPECT_EQ(bucket, settled) << "flapped at sample " << i;
  }
}

TEST(ThermalLoop, HysteresisRisesFallsAndComesAllTheWayHome) {
  // A deep throttle clears the margin and raises the bucket immediately.
  EXPECT_GT(thermal_bucket_with_hysteresis(0, 0.55, 0.03), 3u);
  // A solid recovery steps the bucket down once the margin is cleared.
  const std::size_t down = thermal_bucket_with_hysteresis(4, 0.9, 0.03);
  EXPECT_LT(down, 4u);
  EXPECT_GT(down, 0u);
  // Fully cooled always returns to bucket 0 — the +margin guard must not
  // pin a once-throttled device at bucket 1 forever.
  EXPECT_EQ(thermal_bucket_with_hysteresis(1, 1.0, 0.03), 0u);
  EXPECT_EQ(thermal_bucket_with_hysteresis(4, 1.0, 0.03), 0u);
}

// ---------------------------------------------------------------------------
// Bucket-derated SoCs: pure, keyed apart, floored per kind.

TEST(ThermalLoop, DeratedBucketSocIsPureAndCacheKeyed) {
  const Soc soc = Soc::kirin990();
  const Soc b2 = thermally_derated_bucket(soc, 2);
  // Pure: same inputs, same fingerprint (the PlanCache key ingredient).
  EXPECT_EQ(b2.fingerprint(), thermally_derated_bucket(soc, 2).fingerprint());
  // Distinct buckets key apart, and bucket 0 is the SoC itself.
  EXPECT_NE(b2.fingerprint(), soc.fingerprint());
  EXPECT_NE(b2.fingerprint(), thermally_derated_bucket(soc, 3).fingerprint());
  EXPECT_EQ(thermally_derated_bucket(soc, 0).fingerprint(), soc.fingerprint());
  // Each bucket derates peak throughput by another 10%, floored at the
  // processor kind's own throttle floor (the NPU floors at 0.85 already).
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    const double floor = ThermalModel(soc.processors()[p]).min_factor();
    EXPECT_DOUBLE_EQ(b2.processors()[p].peak_gflops,
                     soc.processors()[p].peak_gflops * std::max(0.8, floor));
  }
}

TEST(ThermalLoop, DeratedBucketRespectsPerKindThrottleFloors) {
  // A very deep bucket cannot derate below each kind's physical throttle
  // floor — an NPU never loses more than its min_factor allows.
  const Soc soc = Soc::kirin990();
  const Soc deep = thermally_derated_bucket(soc, 9);
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    const double floor = ThermalModel(soc.processors()[p]).min_factor();
    EXPECT_DOUBLE_EQ(deep.processors()[p].peak_gflops,
                     soc.processors()[p].peak_gflops * floor);
  }
}

// ---------------------------------------------------------------------------
// The closed loop inside run_online.

OnlineOptions hot_loop_options() {
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.thermal_loop = true;
  // Hot ambient + accelerated aging: a millisecond-scale stream heats the
  // RC models (time constants of tens of seconds) to steady state fast.
  opts.thermal.ambient_c = 45.0;
  opts.thermal.time_scale = 50000.0;
  return opts;
}

TEST(ThermalLoop, ClosedLoopDerivesBucketsAndStaysDeterministic) {
  // CPU-bound serving (the accelerators are lost for good), hot ambient:
  // the big-CPU cluster is the bottleneck, heats past its throttle knee,
  // and the derived bucket must climb once and then HOLD — the exact RC
  // integrator cannot overshoot, so the bucket never flaps back to 0.
  const Soc soc = Soc::kirin990();
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 0, 0.0, kInf, 1.0},  // NPU
      FaultEvent{FaultKind::kDropout, 2, 0.0, kInf, 1.0},  // GPU
  });
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kGoogLeNet}, 6, 5.0);
  OnlineOptions opts = hot_loop_options();
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);

  // The first window plans cool; the loop then heats the die and raises
  // the bucket, which sticks (hysteresis) instead of flapping.
  ASSERT_FALSE(r.windows.empty());
  EXPECT_EQ(r.windows.front().thermal_bucket, 0u);
  EXPECT_GE(r.bucket_transitions, 1u);
  EXPECT_GE(r.final_thermal_bucket, 1u);
  EXPECT_LE(r.final_thermal_bucket, opts.thermal.max_bucket);
  // No flapping: once hot, the bucket holds (nondecreasing under a steady
  // load), and the transition count stays a short monotone climb.
  EXPECT_LE(r.bucket_transitions, 3u);
  for (std::size_t w = 1; w < r.windows.size(); ++w) {
    EXPECT_GE(r.windows[w].thermal_bucket, r.windows[w - 1].thermal_bucket);
    EXPECT_LE(r.windows[w].thermal_bucket, opts.thermal.max_bucket);
  }
  // Every request completes on the derated device.
  for (double c : r.completion_ms) EXPECT_GE(c, 0.0);
  EXPECT_TRUE(std::isfinite(r.timeline.makespan_ms()));

  // Same inputs replay the whole loop bit for bit.
  expect_identical(r, run_online(soc, stream, opts));
}

class ThermalLoopSocs : public ::testing::TestWithParam<const char*> {};

TEST_P(ThermalLoopSocs, DeratedPlanningIsSerialAsyncIdentical) {
  // Derated planning end to end (static bucket and closed loop): async
  // prefetching must key speculative plans on the *dynamic* bucket, so a
  // mid-stream transition discards stale prefetches instead of consuming
  // plans for the wrong thermal environment.
  const Soc soc = soc_by_name(GetParam());
  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 5, 5.0);

  for (const bool closed : {false, true}) {
    OnlineOptions serial = hot_loop_options();
    if (!closed) {
      serial.thermal_loop = false;
      serial.thermal_bucket = 2;  // static derated serving
    }
    const OnlineResult base = run_online(soc, stream, serial);
    if (!closed) {
      for (const WindowStats& w : base.windows) {
        EXPECT_EQ(w.thermal_bucket, 2u);
      }
      EXPECT_EQ(base.bucket_transitions, 0u);
    }
    for (const std::size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      OnlineOptions async = serial;
      async.pool = &pool;
      async.async_planning = true;
      expect_identical(base, run_online(soc, stream, async));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSocs, ThermalLoopSocs,
                         ::testing::Values("kirin990", "snapdragon778g",
                                           "snapdragon870"));

TEST(ThermalLoop, StaticBucketKeysPlanCacheApart) {
  // The same window planned under two different buckets must not share a
  // cache entry: the derated SoC's fingerprint and the bucket are both
  // part of the key, and each keys apart on its own.
  const Soc soc = Soc::kirin990();
  const std::vector<const Model*> window = {&zoo_model(ModelId::kMobileNetV2),
                                            &zoo_model(ModelId::kGoogLeNet),
                                            &zoo_model(ModelId::kAlexNet)};
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  const PlannerOptions knobs;
  const exec::PlanKey cool =
      exec::make_key(soc, window, knobs, {full, 0});
  exec::PlanCache cache(8);
  const StaticEvaluator eval(soc, window);
  cache.insert(cool, exec::compile(Hetero2PipePlanner(eval).plan().plan, eval));
  const Soc derated = thermally_derated_bucket(soc, 2);
  for (const exec::PlanKey& hot :
       {exec::make_key(derated, window, knobs, {full, 2}),
        exec::make_key(soc, window, knobs, {full, 2}),
        exec::make_key(derated, window, knobs, {full, 0})}) {
    EXPECT_NE(hot, cool);
    EXPECT_EQ(cache.find(hot), nullptr);
    EXPECT_EQ(cache.peek_near(hot), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Correlated weather through the serving loop.

TEST(ThermalLoop, NpuGpuStormCompletesEveryAdmittedRequest) {
  // The flagship robustness scenario: a full-severity driver cascade takes
  // the NPU and then the GPU down mid-stream while a background burst
  // degrades the shared bus.  Every admitted request must still complete,
  // the timeline must be fault-clean, and the loop must surface the storm
  // in its observability counters.
  const Soc soc = Soc::kirin990();
  WeatherEvent cascade;
  cascade.kind = WeatherKind::kDriverCascade;
  cascade.begin_ms = 30.0;
  cascade.duration_ms = 50.0;
  cascade.severity = 1.0;
  WeatherEvent burst;
  burst.kind = WeatherKind::kBackgroundBurst;
  burst.begin_ms = 0.0;
  burst.duration_ms = 400.0;
  burst.severity = 0.8;
  const FaultScript faults = FaultScript::with_weather(soc, {cascade, burst});

  const auto stream = window_stream(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, 5, 5.0);
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.faults = &faults;
  const OnlineResult r = run_online(soc, stream, opts);

  const auto violation = verify_timeline_against_faults(r.timeline, faults);
  EXPECT_FALSE(violation.has_value()) << *violation;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(r.admitted[i]) << "request " << i;
    EXPECT_GE(r.completion_ms[i], 0.0) << "request " << i;
  }
  EXPECT_TRUE(std::isfinite(r.timeline.makespan_ms()));
  // Observability: the loop noticed the weather and the degraded bus.
  EXPECT_GE(r.weather_onsets, 1u);
  EXPECT_GE(r.bus_degraded_windows, 1u);
  bool saw_degraded_bus = false;
  for (const WindowStats& w : r.windows) {
    if (w.bus_factor < 1.0) saw_degraded_bus = true;
    EXPECT_GE(w.bus_factor, 0.05);
  }
  EXPECT_TRUE(saw_degraded_bus);

  // The whole storm replays bit-identically under async planning.
  ThreadPool pool(4);
  OnlineOptions async = opts;
  async.pool = &pool;
  async.async_planning = true;
  expect_identical(r, run_online(soc, stream, async));
}

TEST(ThermalLoop, WeatherAndThermalLoopComposeDeterministically) {
  // Everything at once — sampled weather, bus degradation, and the closed
  // thermal loop — must still be a pure function of its inputs.
  const Soc soc = Soc::kirin990();
  FaultSamplerOptions sample;
  sample.per_proc_faults = false;
  sample.mean_weather_gap_ms = 60.0;
  sample.horizon_ms = 300.0;
  const FaultScript faults = FaultScript::sample(soc, 5, sample);
  ASSERT_FALSE(faults.weather().empty());

  const auto stream = window_stream(
      {ModelId::kMobileNetV2, ModelId::kGoogLeNet, ModelId::kAlexNet}, 4, 8.0);
  OnlineOptions opts = hot_loop_options();
  opts.faults = &faults;
  const OnlineResult base = run_online(soc, stream, opts);
  const auto violation = verify_timeline_against_faults(base.timeline, faults);
  EXPECT_FALSE(violation.has_value()) << *violation;
  expect_identical(base, run_online(soc, stream, opts));
  ThreadPool pool(4);
  OnlineOptions async = opts;
  async.pool = &pool;
  async.async_planning = true;
  expect_identical(base, run_online(soc, stream, async));
}

TEST(ThermalLoop, WeatherOnsetsFromUnsortedScriptReportOnceInIndexOrder) {
  // The weather list is not in begin_ms order: weather 1 (t = 15) and
  // weather 2 (t = 5) cross, and both begin, with weather 3, between the
  // probes at t = 0 and t = 20.  Each onset is reported once, at the first
  // probe at or after its begin, and one probe's onsets in index order.
  const FaultScript faults = fault_script_from_json(Json::parse(R"({
    "events": [
      {"kind": "slowdown", "proc": 1, "begin_ms": 35, "end_ms": 60,
       "factor": 0.7, "weather": 0},
      {"kind": "slowdown", "proc": 1, "begin_ms": 15, "end_ms": 25,
       "factor": 0.8, "weather": 1},
      {"kind": "slowdown", "proc": 2, "begin_ms": 5, "end_ms": 9,
       "factor": 0.6, "weather": 2},
      {"kind": "bus_degrade", "proc": 0, "begin_ms": 18, "end_ms": 30,
       "factor": 0.5, "weather": 3}],
    "weather": [
      {"kind": "thermal_storm", "begin_ms": 35, "duration_ms": 25},
      {"kind": "thermal_storm", "begin_ms": 15, "duration_ms": 10},
      {"kind": "thermal_storm", "begin_ms": 5, "duration_ms": 4},
      {"kind": "background_burst", "begin_ms": 18, "duration_ms": 12}]})"));
  ASSERT_EQ(faults.weather().size(), 4u);
  ASSERT_GT(faults.weather()[1].begin_ms, faults.weather()[2].begin_ms);

  const auto stream = window_stream({ModelId::kSqueezeNet}, 3, 20.0);
  OnlineOptions opts;
  opts.replan_window = 1;
  opts.faults = &faults;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  tracer.set_enabled(false);
  std::vector<double> onsets;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name != "online.weather_onset") continue;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "weather") onsets.push_back(a.number);
    }
  }
  tracer.clear();

  ASSERT_EQ(r.windows.size(), 3u);
  EXPECT_EQ(r.windows[1].arrival_ms, 20.0);
  EXPECT_EQ(r.weather_onsets, 4u);
  EXPECT_EQ(onsets, (std::vector<double>{1, 2, 3, 0}));
}

TEST(ThermalLoop, AdmissionBoundIsPricedPerMaskAndBucket) {
  // One model, judged while the closed loop moves the bucket and an NPU
  // drop-out moves the mask.  Two of every three requests carry a deadline
  // that the cool healthy SoC meets and the derated or degraded one
  // provably cannot, so each admission decision depends on both.
  const Soc soc = Soc::kirin990();
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  const Model& model = zoo_model(ModelId::kResNet50);
  // The admission bound, recomputed: each layer's best solo time over the
  // supporting processors in `mask` of the bucket's derated SoC.
  const auto bound_ms = [&](std::uint64_t mask, std::size_t bucket) {
    const Soc priced = thermally_derated_bucket(soc, bucket);
    const CostModel cost(priced);
    double total = 0.0;
    for (const Layer& layer : model.layers()) {
      double best = kInf;
      for (std::size_t p = 0; p < priced.num_processors(); ++p) {
        if (((mask >> p) & 1ull) == 0) continue;
        if (!priced.processor(p).supports(layer.kind)) continue;
        best = std::min(best, cost.layer_time_ms(layer, priced.processor(p)));
      }
      total += best;
    }
    return total;
  };
  const double slack = 1.04 * bound_ms(full, 0);
  std::vector<OnlineRequest> stream;
  for (int i = 0; i < 30; ++i) {
    OnlineRequest req{&model, 5.0 * i};
    if (i % 3 != 2) req.deadline_ms = req.arrival_ms + slack;
    stream.push_back(req);
  }
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 40.0, 80.0, 1.0}});
  OnlineOptions opts = hot_loop_options();
  opts.replan_window = 1;
  opts.faults = &faults;
  opts.deadline_policy = DeadlinePolicy::kShed;
  const OnlineResult r = run_online(soc, stream, opts);

  // Windows hold one request each and nothing is deferred, so the executed
  // windows are the admitted requests in stream order.
  EXPECT_GT(r.shed_requests, 0u);
  std::vector<std::uint64_t> masks;
  std::vector<std::size_t> buckets;
  std::size_t w = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (!r.admitted[i]) continue;
    ASSERT_LT(w, r.windows.size());
    const WindowStats& ws = r.windows[w++];
    masks.push_back(ws.avail_mask);
    buckets.push_back(ws.thermal_bucket);
    const double t = ws.release_ms - ws.planning_ms;
    EXPECT_LE(std::max(stream[i].arrival_ms, t) +
                  bound_ms(ws.avail_mask, ws.thermal_bucket),
              stream[i].deadline_ms + 1e-9)
        << "request " << i << " admitted provably late";
  }
  EXPECT_EQ(w, r.windows.size());
  std::sort(masks.begin(), masks.end());
  std::sort(buckets.begin(), buckets.end());
  EXPECT_GE(std::unique(masks.begin(), masks.end()) - masks.begin(), 2);
  EXPECT_GE(std::unique(buckets.begin(), buckets.end()) - buckets.begin(), 2);
}

}  // namespace
}  // namespace h2p
