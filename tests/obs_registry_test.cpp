// obs::Registry: sharded counters, and the spans that time what the
// registry only counts.  The concurrency hammer runs under ASan/UBSan and
// TSan in CI.
#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

TEST(ObsRegistry, DisabledMetricsAreNoops) {
  obs::Registry reg;  // disabled by default
  obs::Counter& c = reg.counter("c");
  c.inc();
  EXPECT_EQ(c.value(), 0u);

  reg.set_enabled(true);
  c.inc(3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter& c = reg.counter("c");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // the pre-reset reference is still live
  EXPECT_EQ(c.value(), 1u);
}

// N pool threads hammering the same counter lose nothing — the total is
// exact, not approximate.
TEST(ObsRegistry, ConcurrentHammerKeepsExactTotals) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter& c = reg.counter("hammer.count");

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  ThreadPool pool(8);
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < kTasks; ++i) {
    done.push_back(pool.submit([&] {
      for (std::size_t j = 0; j < kPerTask; ++j) c.inc();
    }));
  }
  for (std::future<void>& f : done) f.get();

  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST(ObsRegistry, SnapshotShapeAndHostBlock) {
  obs::Registry reg;
  reg.set_enabled(true);
  reg.counter("a.count").inc(5);
  const Json snap = reg.snapshot();
  ASSERT_TRUE(snap.contains("host"));
  EXPECT_GE(snap.at("host").at("cpus").as_number(), 1.0);
  ASSERT_TRUE(snap.contains("counters"));
  EXPECT_EQ(snap.at("counters").at("a.count").as_number(), 5.0);
  EXPECT_FALSE(snap.contains("gauges"));
  // The snapshot must round-trip through the JSON printer/parser.
  const Json reparsed = Json::parse(snap.dump());
  EXPECT_EQ(reparsed.at("counters").at("a.count").as_number(), 5.0);
}

// The plan cache's own counters agree with run_online's accounting: the
// CLI's `plan_cache` block reads the registry, so a divergence here means
// the CLI output lies.
TEST(ObsRegistry, PlanCacheCountersMatchOnlineResult) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);

  const std::vector<ModelId> ids = {
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,  // cold
      ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet,     // near miss
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,  // repeat
  };
  std::vector<OnlineRequest> stream;
  for (ModelId id : ids) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.warm_start = true;
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  reg.set_enabled(false);

  EXPECT_EQ(reg.counter("plan_cache.hits").value(),
            static_cast<std::uint64_t>(r.cache_hits));
  EXPECT_EQ(reg.counter("plan_cache.warm_hits").value(),
            static_cast<std::uint64_t>(r.warm_hits));
}

// Spans time and counters count: one traced, metered run_online records a
// span for every planner entry point and both halves of each serving
// window, and the registry snapshot carries nothing but counters.
TEST(ObsRegistry, OnlineRunSpansTimeEveryPlannerEntry) {
  // w0 plans cold, w1 is a one-model near miss of w0 and warm-starts, and
  // w2 repeats w0 after the NPU's permanent drop-out, so it replans
  // degraded from w0's cached healthy plan.
  const FaultScript faults({FaultEvent{FaultKind::kDropout, 0, 30.0,
                                       std::numeric_limits<double>::infinity(),
                                       1.0}});
  const std::vector<ModelId> ids = {
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
      ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet,
      ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
  };
  std::vector<OnlineRequest> stream;
  for (ModelId id : ids) {
    stream.push_back({&zoo_model(id), static_cast<double>(stream.size()) * 5.0});
  }
  OnlineOptions opts;
  opts.replan_window = 3;
  opts.warm_start = true;
  opts.faults = &faults;

  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  reg.reset();
  reg.set_enabled(true);
  tracer.clear();
  tracer.set_enabled(true);
  const OnlineResult r = run_online(Soc::kirin990(), stream, opts);
  tracer.set_enabled(false);
  reg.set_enabled(false);

  ASSERT_EQ(r.windows.size(), 3u);
  EXPECT_EQ(r.windows[0].source, WindowSource::kColdReplan);
  EXPECT_EQ(r.windows[1].source, WindowSource::kWarmReplan);
  EXPECT_EQ(r.windows[2].source, WindowSource::kDegradedReplan);

  std::map<std::string, std::size_t> spans;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (!e.instant) ++spans[e.name];
  }
  for (const char* name :
       {"planner.cost_tables", "planner.plan_cold", "planner.plan_warm",
        "planner.plan_degraded", "online.plan", "online.consume"}) {
    EXPECT_GE(spans[name], 1u) << name;
  }
  EXPECT_EQ(spans["online.plan"], r.windows.size());
  EXPECT_EQ(spans["online.consume"], r.windows.size());

  const Json snap = reg.snapshot();
  std::vector<std::string> keys;
  for (const auto& [key, value] : snap.items()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"counters", "host"}));
  tracer.clear();
}

}  // namespace
}  // namespace h2p
