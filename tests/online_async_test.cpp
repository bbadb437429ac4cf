// Async online-loop determinism: run_online with async_planning prefetches
// cold plans on a worker pool, but every modeled number — Timeline,
// completion latencies, per-window stats, cache decisions — must be
// bit-identical to a serial run.  These suites run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "models/model_zoo.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "sim/pipeline_sim.h"
#include "soc/cost_model.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

/// A stream exercising every consume path: cold windows, an exact repeat,
/// a permuted repeat, and two near-miss (one-model-delta) windows.
std::vector<OnlineRequest> mixed_stream() {
  const std::vector<ModelId> ids = {
      // w0: cold
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
      // w1: near miss of w0 (SqueezeNet -> AlexNet)
      ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet,
      // w2: exact repeat of w0
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
      // w3: cold
      ModelId::kMobileNetV2, ModelId::kGoogLeNet, ModelId::kViT,
      // w4: permuted repeat of w1
      ModelId::kBERT, ModelId::kAlexNet, ModelId::kResNet50,
      // w5: near miss of w3 (ViT -> AlexNet)
      ModelId::kMobileNetV2, ModelId::kGoogLeNet, ModelId::kAlexNet,
  };
  std::vector<OnlineRequest> stream;
  for (ModelId id : ids) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  return stream;
}

void expect_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.timeline.tasks.size(), b.timeline.tasks.size());
  for (std::size_t i = 0; i < a.timeline.tasks.size(); ++i) {
    const TaskRecord& ta = a.timeline.tasks[i];
    const TaskRecord& tb = b.timeline.tasks[i];
    EXPECT_EQ(ta.model_idx, tb.model_idx);
    EXPECT_EQ(ta.seq_in_model, tb.seq_in_model);
    EXPECT_EQ(ta.proc_idx, tb.proc_idx);
    EXPECT_EQ(ta.start_ms, tb.start_ms);  // bit-identical, not approximate
    EXPECT_EQ(ta.end_ms, tb.end_ms);
  }
  ASSERT_EQ(a.completion_ms.size(), b.completion_ms.size());
  for (std::size_t i = 0; i < a.completion_ms.size(); ++i) {
    EXPECT_EQ(a.completion_ms[i], b.completion_ms[i]);
  }
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].source, b.windows[w].source);
    EXPECT_EQ(a.windows[w].arrival_ms, b.windows[w].arrival_ms);
    EXPECT_EQ(a.windows[w].release_ms, b.windows[w].release_ms);
    EXPECT_EQ(a.windows[w].planning_ms, b.windows[w].planning_ms);
    EXPECT_EQ(a.windows[w].hidden_ms, b.windows[w].hidden_ms);
    EXPECT_EQ(a.windows[w].charged_ms, b.windows[w].charged_ms);
  }
  EXPECT_EQ(a.planning_hidden_ms, b.planning_hidden_ms);
  EXPECT_EQ(a.planning_charged_ms, b.planning_charged_ms);
}

class OnlineAsyncSocs : public ::testing::TestWithParam<const char*> {
 protected:
  static Soc soc() {
    const std::string name = GetParam();
    if (name == "kirin990") return Soc::kirin990();
    if (name == "snapdragon778g") return Soc::snapdragon778g();
    return Soc::snapdragon870();
  }
};

TEST_P(OnlineAsyncSocs, AsyncMatchesSerialAcrossThreadCounts) {
  const Soc soc = OnlineAsyncSocs::soc();
  const auto stream = mixed_stream();
  OnlineOptions base;
  base.replan_window = 3;
  base.warm_start = true;

  const OnlineResult serial = run_online(soc, stream, base);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    OnlineOptions async = base;
    async.pool = &pool;
    async.async_planning = true;
    expect_identical(serial, run_online(soc, stream, async));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSocs, OnlineAsyncSocs,
                         ::testing::Values("kirin990", "snapdragon778g",
                                           "snapdragon870"));

TEST(OnlineAsync, PrefetchDepthDoesNotChangeResults) {
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  ThreadPool pool(2);
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.pool = &pool;
  opts.async_planning = true;
  opts.prefetch_depth = 1;
  const OnlineResult shallow = run_online(soc, stream, opts);
  opts.prefetch_depth = 5;
  expect_identical(shallow, run_online(soc, stream, opts));
}

TEST(OnlineAsync, AsyncWithoutPoolThrows) {
  // Previously this silently fell back to a serial run; a misconfigured
  // serving loop must fail fast instead.
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  OnlineOptions async;
  async.replan_window = 3;
  async.async_planning = true;  // pool is null
  EXPECT_THROW(run_online(soc, stream, async), std::invalid_argument);
}

TEST(OnlineAsync, InvalidOptionCombinationsThrow) {
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  ThreadPool pool(2);
  {
    OnlineOptions o;
    o.replan_window = 0;
    EXPECT_THROW(run_online(soc, stream, o), std::invalid_argument);
  }
  {
    OnlineOptions o;
    o.warm_start = true;
    o.use_plan_cache = false;
    EXPECT_THROW(run_online(soc, stream, o), std::invalid_argument);
  }
  {
    OnlineOptions o;
    o.pool = &pool;
    o.async_planning = true;
    o.prefetch_depth = 0;
    EXPECT_THROW(run_online(soc, stream, o), std::invalid_argument);
  }
}

TEST(OnlineAsync, ThrowingPrefetchJobFallsBackToSerialColdReplan) {
  // Regression: an exception inside a speculative prefetch job must not
  // tear down the serving loop (or leak via the drained futures).  The
  // affected windows silently fall back to a serial cold replan, so the
  // results stay bit-identical to a serial run.
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  OnlineOptions serial;
  serial.replan_window = 3;
  const OnlineResult expected = run_online(soc, stream, serial);

  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  async.prefetch_job_hook = [] {
    throw std::runtime_error("injected prefetch failure");
  };
  expect_identical(expected, run_online(soc, stream, async));
}

TEST(OnlineAsync, AsyncWorksWithCacheDisabled) {
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  OnlineOptions serial;
  serial.replan_window = 3;
  serial.use_plan_cache = false;
  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  const OnlineResult a = run_online(soc, stream, serial);
  const OnlineResult b = run_online(soc, stream, async);
  EXPECT_EQ(a.replans, 6);  // every window replans without a cache
  expect_identical(a, b);
}

TEST(OnlineAsync, WindowStatsInvariants) {
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.warm_start = true;
  const OnlineResult r = run_online(soc, stream, opts);

  ASSERT_EQ(r.windows.size(), 2u * 3u);
  int cold = 0;
  int warm = 0;
  int hits = 0;
  double hidden = 0.0;
  double charged = 0.0;
  double prev_release = 0.0;
  for (const WindowStats& ws : r.windows) {
    switch (ws.source) {
      case WindowSource::kColdReplan: ++cold; break;
      case WindowSource::kWarmReplan: ++warm; break;
      case WindowSource::kCacheHit: ++hits; break;
      case WindowSource::kDegradedReplan:
        ADD_FAILURE() << "degraded replan in a fault-free stream";
        break;
    }
    // Release chains behind the previous window's planner and never
    // precedes the window's own arrival.
    EXPECT_GE(ws.release_ms,
              std::max(ws.arrival_ms, prev_release) + ws.planning_ms - 1e-12);
    prev_release = ws.release_ms;
    // hidden + charged partitions the release latency.
    EXPECT_GE(ws.hidden_ms, 0.0);
    EXPECT_GE(ws.charged_ms, 0.0);
    EXPECT_NEAR(ws.hidden_ms + ws.charged_ms, ws.release_ms - ws.arrival_ms,
                1e-9);
    hidden += ws.hidden_ms;
    charged += ws.charged_ms;
  }
  EXPECT_EQ(cold + warm, r.replans);
  EXPECT_EQ(warm, r.warm_hits);
  EXPECT_EQ(hits, r.cache_hits);
  EXPECT_EQ(r.cache_hits, 2);           // w2 exact + w4 permuted repeat
  EXPECT_EQ(r.warm_hits, 2);            // w1 and w5 near misses
  EXPECT_EQ(r.replans - r.warm_hits, 2);  // w0 and w3 cold
  EXPECT_DOUBLE_EQ(r.planning_hidden_ms, hidden);
  EXPECT_DOUBLE_EQ(r.planning_charged_ms, charged);
}

TEST(OnlineAsync, InstrumentationDoesNotPerturbResults) {
  // The tentpole's determinism contract: metrics, tracing, debug logging and
  // drift tracking are strictly observational — an async serving run with
  // everything enabled is bit-identical to the same run with everything
  // disabled.
  const Soc soc = Soc::kirin990();
  const auto stream = mixed_stream();
  OnlineOptions serial;
  serial.replan_window = 3;
  serial.warm_start = true;
  const OnlineResult expected = run_online(soc, stream, serial);

  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);
  std::ostringstream sink;
  obs::Log::global().set_sink_stream(&sink);
  obs::Log::global().set_level(obs::LogLevel::kDebug);

  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  async.drift_tracking = true;
  const OnlineResult instrumented = run_online(soc, stream, async);

  obs::Log::global().set_level(obs::LogLevel::kWarn);
  obs::Log::global().set_sink_stream(nullptr);
  obs::Tracer::global().set_enabled(false);
  obs::Registry::global().set_enabled(false);

  expect_identical(expected, instrumented);
  // The instrumentation did observe the run.
  EXPECT_EQ(instrumented.slice_records.size(),
            instrumented.timeline.tasks.size());
  EXPECT_FALSE(instrumented.slice_records.empty());
  std::size_t plan_spans = 0;
  for (const obs::TraceEvent& e : obs::Tracer::global().events()) {
    if (e.name == "online.plan") ++plan_spans;
  }
  EXPECT_EQ(plan_spans, instrumented.windows.size());
  obs::Tracer::global().clear();
}

TEST(OnlineAsync, BusyPipelineHidesPlanningOverhead) {
  // A burst stream keeps the processors busy when later windows' planner
  // runs: most of their planning latency must be reported as hidden, and
  // the hidden+charged totals must account for every window's release
  // latency.
  std::vector<OnlineRequest> stream;
  for (int rep = 0; rep < 4; ++rep) {
    for (ModelId id : {ModelId::kYOLOv4, ModelId::kBERT, ModelId::kViT}) {
      stream.push_back({&zoo_model(id), 0.0});
    }
  }
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.planning_overhead_ms = 5.0;
  opts.use_plan_cache = false;  // every window replans: 4 planner runs
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  ASSERT_EQ(r.windows.size(), 4u);
  // The first window has nothing to hide behind.
  EXPECT_GT(r.windows[0].charged_ms, 0.0);
  // Later windows plan while the device still chews on earlier ones.
  EXPECT_GT(r.planning_hidden_ms, 0.0);
  for (std::size_t w = 1; w < r.windows.size(); ++w) {
    EXPECT_GT(r.windows[w].hidden_ms, 0.0);
  }
}

/// Recurring scenes: three pairwise-disjoint scenes, then exact repeats and
/// one-model substitutions of them.  Served with cache and warm start, only
/// the first sight of each scene plans cold.
std::vector<OnlineRequest> recurring_scene_stream() {
  using M = ModelId;
  const std::vector<std::vector<ModelId>> windows = {
      {M::kResNet50, M::kBERT, M::kSqueezeNet},       // A
      {M::kMobileNetV2, M::kGoogLeNet, M::kViT},      // B
      {M::kAlexNet, M::kVGG16, M::kInceptionV4},      // C
      {M::kResNet50, M::kBERT, M::kSqueezeNet},       // A
      {M::kResNet50, M::kBERT, M::kAlexNet},          // A, S -> Alex
      {M::kMobileNetV2, M::kGoogLeNet, M::kResNet50}, // B, ViT -> R
      {M::kMobileNetV2, M::kGoogLeNet, M::kViT},      // B
      {M::kResNet50, M::kBERT, M::kMobileNetV2},      // A, S -> Mob
      {M::kAlexNet, M::kBERT, M::kInceptionV4},       // C, VGG -> BERT
      {M::kMobileNetV2, M::kGoogLeNet, M::kSqueezeNet},  // B, ViT -> S
      {M::kAlexNet, M::kVGG16, M::kInceptionV4},      // C
      {M::kAlexNet, M::kViT, M::kInceptionV4},        // C, VGG -> ViT
      {M::kResNet50, M::kGoogLeNet, M::kSqueezeNet},  // A, BERT -> Goog
      {M::kMobileNetV2, M::kBERT, M::kViT},           // B, Goog -> BERT
      {M::kResNet50, M::kVGG16, M::kInceptionV4},     // C, Alex -> R
  };
  std::vector<OnlineRequest> stream;
  for (const auto& window : windows) {
    for (ModelId id : window) {
      stream.push_back(
          {&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
    }
  }
  return stream;
}

/// Pool jobs and discarded prefetches of one async run.  Both count what the
/// pump submits and which keys windows match, not when jobs finish: a job
/// cancelled before it starts still counts as a pool job.
struct PrefetchCounts {
  std::uint64_t jobs = 0;
  std::uint64_t discarded = 0;
};

PrefetchCounts counted_run(const Soc& soc, const std::vector<OnlineRequest>& stream,
                           const OnlineOptions& async, OnlineResult& out) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& jobs = reg.counter("pool.jobs");
  obs::Counter& discarded = reg.counter("online.prefetch_discarded");
  const std::uint64_t jobs_before = jobs.value();
  const std::uint64_t discarded_before = discarded.value();
  reg.set_enabled(true);
  out = run_online(soc, stream, async);
  reg.set_enabled(false);
  return {jobs.value() - jobs_before, discarded.value() - discarded_before};
}

TEST(OnlineAsync, PrefetchSubmitsOnlyWindowsPlannedCold) {
  // A window the cache serves exactly or warm-starts gains nothing from a
  // speculative cold plan.  A prefetcher that submits only windows the
  // believed environment plans cold runs one job per cold window after the
  // first (which is planned inline) here, and no job is discarded; one
  // that submits every exact miss runs one per substituted scene too (11
  // jobs, 9 discarded).
  const Soc soc = Soc::kirin990();
  const auto stream = recurring_scene_stream();
  OnlineOptions serial;
  serial.replan_window = 3;
  serial.warm_start = true;
  const OnlineResult expected = run_online(soc, stream, serial);
  const int cold =
      expected.replans - expected.warm_hits - expected.degraded_hits;
  ASSERT_EQ(cold, 3);
  ASSERT_EQ(expected.warm_hits, 9);

  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  OnlineResult r;
  const PrefetchCounts counts = counted_run(soc, stream, async, r);
  expect_identical(expected, r);
  EXPECT_EQ(counts.discarded, 0u);
  EXPECT_EQ(counts.jobs, static_cast<std::uint64_t>(cold - 1));
}

TEST(OnlineAsync, PrefetchPlansDegradedWindowsWithoutHealthySeed) {
  // The NPU is down for good from t = 0, so every window is planned on the
  // degraded view and no healthy plan ever exists to seed a degraded
  // replan: the prefetcher must treat a degraded window with no healthy
  // seed as cold.  Its first pump runs after window 0's probe, so it
  // predicts under the degraded mask and guesses nothing wrong: every cold
  // window after the first plans from exactly one prefetch.
  const Soc soc = Soc::kirin990();
  const auto stream = recurring_scene_stream();
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 0.0,
                                       std::numeric_limits<double>::infinity(),
                                       1.0}});
  OnlineOptions serial;
  serial.replan_window = 3;
  serial.warm_start = true;
  serial.faults = &faults;
  const OnlineResult expected = run_online(soc, stream, serial);
  const int cold =
      expected.replans - expected.warm_hits - expected.degraded_hits;
  ASSERT_EQ(cold, 3);
  ASSERT_EQ(expected.degraded_hits, 0);
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  for (const WindowStats& w : expected.windows) ASSERT_NE(w.avail_mask, full);

  ThreadPool pool(2);
  OnlineOptions async = serial;
  async.pool = &pool;
  async.async_planning = true;
  OnlineResult r;
  const PrefetchCounts counts = counted_run(soc, stream, async, r);
  expect_identical(expected, r);
  EXPECT_EQ(counts.discarded, 0u);
  EXPECT_EQ(counts.jobs, static_cast<std::uint64_t>(cold - 1));
}

TEST(OnlineAsync, DeferralReorderedWindowPlansItsOwnOrder) {
  // Window 0 is served on the healthy SoC, and the pump after it predicts
  // window 2 as [M,S,M,S] under that environment.  The NPU is out over
  // [2, 5): window 1 is planned degraded, and its last request S (deadline
  // meetable only on the healthy SoC) is deferred to the front of the
  // queue.  Window 2 is then served as [S,M,S,M] — same multiset, same
  // healthy environment, same plan-cache key — once the NPU is back.  The
  // cold plan depends on the order, so consuming the prefetched plan would
  // serve a plan a serial run never makes.
  const Soc soc = Soc::kirin990();
  const Model& s_model = zoo_model(ModelId::kResNet50);
  const Model& m_model = zoo_model(ModelId::kBERT);
  {
    // Precondition: the two orders plan differently.
    const StaticEvaluator msms(soc, {&m_model, &s_model, &m_model, &s_model});
    const StaticEvaluator smsm(soc, {&s_model, &m_model, &s_model, &m_model});
    ASSERT_NE(simulate_plan_makespan(Hetero2PipePlanner(msms).plan().plan, msms),
              simulate_plan_makespan(Hetero2PipePlanner(smsm).plan().plan, smsm));
  }

  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 2.0, 5.0, 1.0}});
  std::vector<OnlineRequest> stream;
  for (ModelId id : {ModelId::kSqueezeNet, ModelId::kMobileNetV2,
                     ModelId::kAlexNet, ModelId::kGoogLeNet}) {
    stream.push_back({&zoo_model(id), 0.0});
  }
  for (ModelId id : {ModelId::kSqueezeNet, ModelId::kMobileNetV2,
                     ModelId::kAlexNet}) {
    stream.push_back({&zoo_model(id), 2.0});
  }
  // Its deadline holds from the recovery at t = 5 on the healthy SoC, but
  // not from t = 3.5 (after the backoff ladder) on the degraded one.
  OnlineRequest deferred{&s_model, 2.0};
  const CostModel cost(soc);
  double healthy_lb = 0.0;  // the admission bound: best solo time per layer
  for (const Layer& layer : s_model.layers()) {
    double best = std::numeric_limits<double>::infinity();
    for (const Processor& proc : soc.processors()) {
      if (proc.supports(layer.kind)) {
        best = std::min(best, cost.layer_time_ms(layer, proc));
      }
    }
    healthy_lb += best;
  }
  deferred.deadline_ms = 5.5 + healthy_lb;
  stream.push_back(deferred);
  for (const Model* m : {&m_model, &s_model, &m_model, &s_model}) {
    stream.push_back({m, 5.0});
  }

  OnlineOptions opts;
  opts.replan_window = 4;
  opts.deadline_policy = DeadlinePolicy::kDefer;
  opts.faults = &faults;
  opts.drift_tracking = true;
  opts.fault_tolerance.initial_backoff_ms = 0.5;
  opts.fault_tolerance.max_backoff_ms = 1.0;
  opts.fault_tolerance.max_retries = 2;
  const OnlineResult serial = run_online(soc, stream, opts);
  ASSERT_EQ(serial.deferred_requests, 1u);
  ASSERT_EQ(serial.windows.size(), 4u);
  const std::uint64_t full = (1ull << soc.num_processors()) - 1;
  EXPECT_EQ(serial.windows[0].avail_mask, full);
  EXPECT_NE(serial.windows[1].avail_mask, full);
  EXPECT_EQ(serial.windows[2].avail_mask, full);
  EXPECT_EQ(serial.windows[2].source, WindowSource::kColdReplan);

  ThreadPool pool(2);
  OnlineOptions async = opts;
  async.pool = &pool;
  async.async_planning = true;
  std::ostringstream sink;
  obs::Log::global().set_sink_stream(&sink);
  obs::Log::global().set_level(obs::LogLevel::kDebug);
  const OnlineResult r = run_online(soc, stream, async);
  obs::Log::global().set_level(obs::LogLevel::kWarn);
  obs::Log::global().set_sink_stream(nullptr);
  expect_identical(serial, r);
  // The [M,S,M,S] prefetch matched window 2's key but not its order, so no
  // window consumed it and the run discarded it.  The discard record names
  // the prefetch's models in its own order.
  const std::string& m = m_model.name();
  const std::string& s = s_model.name();
  const std::string predicted =
      "\"models\":\"" + m + "," + s + "," + m + "," + s + "\"";
  bool discarded = false;
  std::istringstream lines(sink.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("online.prefetch_discarded") != std::string::npos &&
        line.find(predicted) != std::string::npos) {
      discarded = true;
    }
  }
  EXPECT_TRUE(discarded);
  ASSERT_EQ(r.windows.size(), serial.windows.size());
  for (std::size_t w = 0; w < r.windows.size(); ++w) {
    EXPECT_EQ(r.windows[w].predicted_makespan_ms,
              serial.windows[w].predicted_makespan_ms)
        << "window " << w;
  }
}

}  // namespace
}  // namespace h2p
