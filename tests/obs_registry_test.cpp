// obs::Registry: sharded counters and histograms.  The concurrency
// hammer runs under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <vector>

#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/online.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

TEST(ObsRegistry, DisabledMetricsAreNoops) {
  obs::Registry reg;  // disabled by default
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h");
  c.inc();
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);

  reg.set_enabled(true);
  c.inc(3);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(h.count(), 1u);
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
  obs::Histogram& ha = reg.histogram("hsame");
  obs::Histogram& hb = reg.histogram("hsame");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h");
  c.inc(7);
  h.observe(3.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the pre-reset reference is still live
  EXPECT_EQ(c.value(), 1u);
}

// The tentpole's concurrency claim: N pool threads hammering the same
// metrics lose nothing — totals are exact, not approximate.
TEST(ObsRegistry, ConcurrentHammerKeepsExactTotals) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter& c = reg.counter("hammer.count");
  obs::Histogram& h = reg.histogram("hammer.lat");

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  ThreadPool pool(8);
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < kTasks; ++i) {
    done.push_back(pool.submit([&, i] {
      for (std::size_t j = 0; j < kPerTask; ++j) {
        c.inc();
        h.observe(static_cast<double>(i % 7) + 0.5);
      }
    }));
  }
  for (std::future<void>& f : done) f.get();

  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : h.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
  const Summary s = h.summary();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 6.5);
}

TEST(ObsRegistry, HistogramSummaryInterpolatesPercentiles) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1.024, 2.048]
  const Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  // Percentiles are interpolated inside the bucket, clamped to observed
  // min/max — here every sample is 1.5, so every quantile is exactly it.
  EXPECT_DOUBLE_EQ(s.p50, 1.5);
  EXPECT_DOUBLE_EQ(s.p99, 1.5);
  EXPECT_DOUBLE_EQ(s.mean, 1.5);
}

TEST(ObsRegistry, SnapshotShapeAndHostBlock) {
  obs::Registry reg;
  reg.set_enabled(true);
  reg.counter("a.count").inc(5);
  reg.histogram("a.lat").observe(1.0);
  const Json snap = reg.snapshot();
  ASSERT_TRUE(snap.contains("host"));
  EXPECT_GE(snap.at("host").at("cpus").as_number(), 1.0);
  ASSERT_TRUE(snap.contains("counters"));
  EXPECT_EQ(snap.at("counters").at("a.count").as_number(), 5.0);
  EXPECT_FALSE(snap.contains("gauges"));
  const Json& hist = snap.at("histograms").at("a.lat");
  ASSERT_TRUE(hist.contains("summary"));
  EXPECT_EQ(hist.at("summary").at("count").as_number(), 1.0);
  ASSERT_TRUE(hist.contains("buckets"));
  // One bucket per bound plus the overflow bucket (le = null).
  EXPECT_EQ(hist.at("buckets").size(),
            obs::Registry::default_latency_buckets().size() + 1);
  // The snapshot must round-trip through the JSON printer/parser.
  const Json reparsed = Json::parse(snap.dump());
  EXPECT_EQ(reparsed.at("counters").at("a.count").as_number(), 5.0);
}

TEST(ObsRegistry, HistogramSummaryHasInterpolatedPercentiles) {
  // Registry::snapshot exposes interpolated p50/p90/p95/p99 per histogram.
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 8));
  const Json snap = reg.snapshot();
  const Json& summary = snap.at("histograms").at("lat").at("summary");
  for (const char* key : {"p50", "p90", "p95", "p99"}) {
    ASSERT_TRUE(summary.contains(key)) << key;
  }
  EXPECT_LE(summary.at("p50").as_number(), summary.at("p95").as_number());
  EXPECT_LE(summary.at("p95").as_number(), summary.at("p99").as_number());
}

// Satellite drift guard: the registry counters run_online increments must
// equal the OnlineResult fields — the CLI's JSON reads the registry, so a
// divergence here means the CLI output lies.
TEST(ObsRegistry, OnlineCountersMatchOnlineResult) {
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

  EXPECT_EQ(reg.counter("online.windows").value(), r.windows.size());
  EXPECT_EQ(reg.counter("online.cache_hits").value(),
            static_cast<std::uint64_t>(r.cache_hits));
  EXPECT_EQ(reg.counter("online.warm_hits").value(),
            static_cast<std::uint64_t>(r.warm_hits));
  EXPECT_EQ(reg.counter("online.degraded_replans").value(),
            static_cast<std::uint64_t>(r.degraded_hits));
  EXPECT_EQ(reg.counter("online.cold_replans").value(),
            static_cast<std::uint64_t>(r.replans - r.warm_hits -
                                       r.degraded_hits));
  // The plan-cache's own counters agree with the loop's accounting.
  EXPECT_EQ(reg.counter("plan_cache.hits").value(),
            static_cast<std::uint64_t>(r.cache_hits));
  EXPECT_EQ(reg.counter("plan_cache.warm_hits").value(),
            static_cast<std::uint64_t>(r.warm_hits));
}

}  // namespace
}  // namespace h2p
