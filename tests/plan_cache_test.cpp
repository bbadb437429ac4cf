// Tests for exec::PlanCache — the LRU keyed by (SoC fingerprint, model
// multiset, planner options) that lets the online path skip re-planning
// repeated request windows.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/planner.h"
#include "exec/plan_cache.h"
#include "obs/metrics.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

exec::CompiledPlan compile_window(const Fixture& fx) {
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  return exec::compile(report.plan, *fx.eval);
}

std::vector<const Model*> window_of(std::vector<ModelId> ids) {
  std::vector<const Model*> models;
  for (ModelId id : ids) models.push_back(&zoo_model(id));
  return models;
}

/// Distinct keys for the LRU tests: one window at thermal bucket `bucket`.
/// Their environments differ, so none is near another.
exec::PlanKey bucket_key(std::size_t bucket) {
  return exec::make_key(Soc::kirin990(), window_of({ModelId::kSqueezeNet}), {},
                        exec::PlanEnv{~0ull, bucket});
}

/// A PlanCache counts its hits, misses, warm hits and evictions into the
/// global registry's `plan_cache.*` counters; this guard resets and enables
/// the registry for one test and reads them back.
class CacheCounters {
 public:
  CacheCounters() {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(true);
  }
  ~CacheCounters() { obs::Registry::global().set_enabled(false); }
  CacheCounters(const CacheCounters&) = delete;
  CacheCounters& operator=(const CacheCounters&) = delete;

  [[nodiscard]] std::uint64_t hits() const { return value("plan_cache.hits"); }
  [[nodiscard]] std::uint64_t misses() const { return value("plan_cache.misses"); }
  [[nodiscard]] std::uint64_t warm_hits() const {
    return value("plan_cache.warm_hits");
  }
  [[nodiscard]] std::uint64_t evictions() const {
    return value("plan_cache.evictions");
  }

 private:
  static std::uint64_t value(const char* name) {
    return obs::Registry::global().counter(name).value();
  }
};

TEST(PlanCacheKey, IdenticalWindowsShareAKey) {
  const Soc soc = Soc::kirin990();
  const auto a = window_of({ModelId::kResNet50, ModelId::kBERT});
  const auto b = window_of({ModelId::kResNet50, ModelId::kBERT});
  EXPECT_EQ(exec::make_key(soc, a, {}),
            exec::make_key(soc, b, {}));
}

TEST(PlanCacheKey, PermutedWindowsShareAKey) {
  // The key is a multiset of names: arrival order must not matter.
  const Soc soc = Soc::kirin990();
  const auto a = window_of({ModelId::kResNet50, ModelId::kBERT,
                            ModelId::kSqueezeNet, ModelId::kSqueezeNet});
  const auto b = window_of({ModelId::kSqueezeNet, ModelId::kSqueezeNet,
                            ModelId::kBERT, ModelId::kResNet50});
  EXPECT_EQ(exec::make_key(soc, a, {}),
            exec::make_key(soc, b, {}));
}

TEST(PlanCacheKey, DifferentMultiplicityDiffersEvenWithSameSupport) {
  const Soc soc = Soc::kirin990();
  const auto a = window_of({ModelId::kResNet50, ModelId::kResNet50, ModelId::kBERT});
  const auto b = window_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kBERT});
  EXPECT_NE(exec::make_key(soc, a, {}),
            exec::make_key(soc, b, {}));
}

TEST(PlanCacheKey, SocAndPlannerOptionsArePartOfTheKey) {
  const auto models = window_of({ModelId::kResNet50, ModelId::kBERT});
  const exec::PlanKey base =
      exec::make_key(Soc::kirin990(), models, {});
  EXPECT_NE(base, exec::make_key(Soc::snapdragon870(), models, {}));
  EXPECT_NE(base, exec::make_key(Soc::kirin990(), models,
                                            PlannerOptions::no_ct()));
}

TEST(PlanCacheKey, ExecutionEnvironmentIsPartOfTheKey) {
  // A plan laid out for the full SoC must not be served once a processor
  // has dropped out or the chip has throttled: mask and thermal bucket key
  // separate entries.
  const Soc soc = Soc::kirin990();
  const auto models = window_of({ModelId::kResNet50, ModelId::kBERT});
  const exec::PlanKey base = exec::make_key(soc, models, {});

  exec::PlanEnv degraded;
  degraded.avail_mask = ((1ull << soc.num_processors()) - 1) & ~1ull;  // no NPU
  EXPECT_NE(base, exec::make_key(soc, models, {}, degraded));

  exec::PlanEnv hot;
  hot.thermal_bucket = 2;
  EXPECT_NE(base, exec::make_key(soc, models, {}, hot));
  EXPECT_NE(exec::make_key(soc, models, {}, degraded),
            exec::make_key(soc, models, {}, hot));
}

TEST(PlanCacheKey, DefaultEnvEqualsExplicitlyHealthy) {
  // The all-ones default mask is normalized to the SoC's processor count,
  // so "no environment given" and "everything healthy, nominal thermals"
  // are the same entry.
  const Soc soc = Soc::kirin990();
  const auto models = window_of({ModelId::kResNet50, ModelId::kBERT});
  exec::PlanEnv healthy;
  healthy.avail_mask = (1ull << soc.num_processors()) - 1;
  healthy.thermal_bucket = 0;
  EXPECT_EQ(exec::make_key(soc, models, {}),
            exec::make_key(soc, models, {}, healthy));
  exec::PlanEnv defaulted;  // mask ~0ull
  EXPECT_EQ(exec::make_key(soc, models, {}),
            exec::make_key(soc, models, {}, defaulted));
}

TEST(PlanCacheKey, OneUlpChangeIsADifferentSocAndKey) {
  // The fingerprint prints every double exactly: two SoCs that differ past
  // the 6th significant digit must not share a cache entry (or a memoized
  // slicing), nor seed each other's warm starts.
  const Soc soc = Soc::kirin990();
  std::vector<Processor> procs = soc.processors();
  procs[1].peak_gflops = std::nextafter(procs[1].peak_gflops, 1e9);
  const Soc nudged(soc.name(), procs, soc.bus_bw_gbps(), soc.mem_capacity_bytes(),
                   soc.available_bytes(), soc.mem_states());
  EXPECT_NE(soc.fingerprint(), nudged.fingerprint());

  const auto pair = window_of({ModelId::kResNet50, ModelId::kBERT});
  const auto triple =
      window_of({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet});
  const exec::PlanKey key = exec::make_key(soc, pair, {});
  const exec::PlanKey nudged_key = exec::make_key(nudged, pair, {});
  EXPECT_NE(key, nudged_key);
  EXPECT_TRUE(key.near(exec::make_key(soc, triple, {})));
  EXPECT_TRUE(nudged_key.near(exec::make_key(nudged, triple, {})));
  EXPECT_FALSE(key.near(exec::make_key(nudged, triple, {})));

  // The classifier percentile keys exactly too.
  PlannerOptions pct;
  pct.classifier_percentile = std::nextafter(pct.classifier_percentile, 1.0);
  EXPECT_NE(key, exec::make_key(soc, pair, pct));
}

TEST(PlanCacheKey, EveryPlannerOptionIsPartOfTheKey) {
  // PlanKey compares the whole PlannerOptions: changing any one knob keys
  // a separate entry, and no warm start crosses knobs.
  const Soc soc = Soc::kirin990();
  const auto models = window_of({ModelId::kResNet50, ModelId::kBERT});
  const auto near = window_of({ModelId::kResNet50, ModelId::kAlexNet});
  const exec::PlanKey base = exec::make_key(soc, models, {});
  const std::vector<std::function<void(PlannerOptions&)>> nudges = {
      [](PlannerOptions& o) { o.contention_mitigation = false; },
      [](PlannerOptions& o) { o.work_stealing = false; },
      [](PlannerOptions& o) { o.tail_optimization = false; },
      [](PlannerOptions& o) { o.classifier_percentile = 0.5; },
      [](PlannerOptions& o) { o.num_stages = 2; },
  };
  for (std::size_t i = 0; i < nudges.size(); ++i) {
    PlannerOptions options;
    nudges[i](options);
    EXPECT_NE(base, exec::make_key(soc, models, options)) << "field " << i;
    EXPECT_FALSE(base.near(exec::make_key(soc, near, options))) << "field " << i;
  }
  EXPECT_TRUE(base.near(exec::make_key(soc, near, {})));
}

TEST(PlanCacheKey, NullModelOrNanPercentileThrows) {
  const Soc soc = Soc::kirin990();
  EXPECT_THROW((void)exec::make_key(soc, {&zoo_model(ModelId::kBERT), nullptr}, {}),
               std::invalid_argument);
  PlannerOptions nan;
  nan.classifier_percentile = std::nan("");
  EXPECT_THROW((void)exec::make_key(soc, window_of({ModelId::kBERT}), nan),
               std::invalid_argument);
}

TEST(PlanCache, MissThenHit) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const exec::PlanKey key = exec::make_key(soc, fx.models, {});

  const CacheCounters counts;
  exec::PlanCache cache(4);
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(counts.misses(), 1u);

  const exec::CompiledPlan& stored = cache.insert(key, compile_window(fx));
  const exec::CompiledPlan* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, &stored);
  EXPECT_EQ(hit->slices, stored.slices);
  EXPECT_EQ(counts.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, PermutedWindowHitsTheSameEntry) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, soc);

  const CacheCounters counts;
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto permuted = window_of(
      {ModelId::kSqueezeNet, ModelId::kResNet50, ModelId::kBERT});
  EXPECT_NE(cache.find(exec::make_key(soc, permuted, {})), nullptr);
  EXPECT_EQ(counts.hits(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);
  exec::CompiledPlan plan = compile_window(fx);

  const exec::PlanKey a = bucket_key(0);
  const exec::PlanKey b = bucket_key(1);
  const exec::PlanKey c = bucket_key(2);
  const CacheCounters counts;
  exec::PlanCache cache(2);
  cache.insert(a, plan);
  cache.insert(b, plan);
  ASSERT_NE(cache.find(a), nullptr);  // bump a to MRU: b is now LRU
  cache.insert(c, plan);              // evicts b

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counts.evictions(), 1u);
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

TEST(PlanCache, PointerStableUntilEviction) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);
  exec::CompiledPlan plan = compile_window(fx);

  exec::PlanCache cache(3);
  const exec::CompiledPlan* a = &cache.insert(bucket_key(0), plan);
  cache.insert(bucket_key(1), plan);
  cache.insert(bucket_key(2), plan);
  EXPECT_EQ(cache.find(bucket_key(0)), a);  // inserts and lookups did not move it
}

TEST(PlanCache, InsertOverwritesExistingKey) {
  const Soc soc = Soc::kirin990();
  Fixture one({ModelId::kSqueezeNet}, soc);
  Fixture two({ModelId::kSqueezeNet, ModelId::kResNet50}, soc);

  exec::PlanCache cache(4);
  cache.insert(bucket_key(0), compile_window(one));
  cache.insert(bucket_key(0), compile_window(two));
  const exec::CompiledPlan* found = cache.find(bucket_key(0));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->num_models, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, ClearDropsEntriesButKeepsStats) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);

  const CacheCounters counts;
  exec::PlanCache cache(4);
  cache.insert(bucket_key(0), compile_window(fx));
  ASSERT_NE(cache.find(bucket_key(0)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(bucket_key(0)), nullptr);
  EXPECT_EQ(counts.hits(), 1u);
  EXPECT_EQ(counts.misses(), 1u);
}

// ---- near-miss lookup (warm-start seeds) ------------------------------------

TEST(PlanCacheNear, OneModelSubstitutionIsServedAndCounted) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(4);
  const exec::CompiledPlan& stored =
      cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto probe = window_of(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kAlexNet});
  const exec::CompiledPlan* near =
      cache.find_near(exec::make_key(soc, probe, {}));
  ASSERT_NE(near, nullptr);
  EXPECT_EQ(near, &stored);
  EXPECT_EQ(counts.warm_hits(), 1u);
  EXPECT_EQ(counts.hits(), 0u);  // warm hits are counted separately
}

TEST(PlanCacheNear, AdditionAndRemovalAreServed) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto added = window_of(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet});
  EXPECT_NE(cache.find_near(exec::make_key(soc, added, {})), nullptr);
  const auto removed = window_of({ModelId::kResNet50});
  EXPECT_NE(cache.find_near(exec::make_key(soc, removed, {})), nullptr);
  EXPECT_EQ(counts.warm_hits(), 2u);
}

TEST(PlanCacheNear, ExactMatchIsNeverServed) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(4);
  const exec::PlanKey key = exec::make_key(soc, fx.models, {});
  cache.insert(key, compile_window(fx));
  EXPECT_EQ(cache.find_near(key), nullptr);
  EXPECT_EQ(counts.warm_hits(), 0u);
}

TEST(PlanCacheNear, TwoEditsRejected) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));
  const auto probe = window_of({ModelId::kAlexNet, ModelId::kSqueezeNet});
  EXPECT_EQ(cache.find_near(exec::make_key(soc, probe, {})), nullptr);
}

TEST(PlanCacheNear, SocOrKnobMismatchRejected) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto probe = window_of({ModelId::kResNet50, ModelId::kAlexNet});
  EXPECT_EQ(cache.find_near(exec::make_key(Soc::snapdragon870(),
                                                      probe, {})),
            nullptr);
  EXPECT_EQ(cache.find_near(exec::make_key(
                soc, probe, PlannerOptions::no_ct())),
            nullptr);
  EXPECT_EQ(counts.warm_hits(), 0u);
}

TEST(PlanCacheNear, EnvironmentMismatchRejected) {
  // Warm starts must not cross execution environments: a near-miss window
  // probed under a degraded mask (or hotter bucket) never reuses a plan
  // laid out for the healthy chip.
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto probe = window_of({ModelId::kResNet50, ModelId::kAlexNet});
  exec::PlanEnv degraded;
  degraded.avail_mask = ((1ull << soc.num_processors()) - 1) & ~1ull;
  EXPECT_EQ(
      cache.find_near(exec::make_key(soc, probe, {}, degraded)),
      nullptr);
  exec::PlanEnv hot;
  hot.thermal_bucket = 3;
  EXPECT_EQ(cache.find_near(exec::make_key(soc, probe, {}, hot)),
            nullptr);
  EXPECT_EQ(counts.warm_hits(), 0u);
}

TEST(PlanCacheNear, EmptyWindowIsOneEditFromSingleton) {
  // Edge: a zero-model key is exactly one removal away from any
  // single-model window under the same SoC and knobs.
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));
  const exec::PlanKey empty_key = exec::make_key(soc, {}, {});
  EXPECT_NE(cache.find_near(empty_key), nullptr);
  EXPECT_TRUE(empty_key.near(exec::make_key(soc, fx.models, {})));
}

TEST(PlanCacheNear, DuplicateModelsCountMultiplicity) {
  // The key is a multiset: {R,R,B} vs {R,B,B} is one substitution (served);
  // {R,R,B} vs {B} is two removals (rejected).
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kResNet50, ModelId::kBERT}, soc);
  exec::PlanCache cache(4);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));

  const auto swapped = window_of(
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kBERT});
  EXPECT_NE(cache.find_near(exec::make_key(soc, swapped, {})), nullptr);
  const auto shrunk = window_of({ModelId::kBERT});
  EXPECT_EQ(cache.find_near(exec::make_key(soc, shrunk, {})), nullptr);
}

TEST(PlanCacheNear, BumpsSourceEntryToMru) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  exec::PlanCache cache(2);
  const exec::PlanKey seed_key = exec::make_key(soc, fx.models, {});
  const exec::PlanKey filler = bucket_key(1);
  cache.insert(seed_key, compile_window(fx));
  cache.insert(filler, compile_window(fx));  // seed is now LRU

  const auto probe = window_of({ModelId::kResNet50, ModelId::kAlexNet});
  ASSERT_NE(cache.find_near(exec::make_key(soc, probe, {})), nullptr);
  cache.insert(bucket_key(2), compile_window(fx));  // evicts the filler, not the seed
  EXPECT_NE(cache.peek(seed_key), nullptr);
  EXPECT_EQ(cache.peek(filler), nullptr);
}

TEST(PlanCacheNear, CapacityOneEvictionDropsSeed) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kResNet50, ModelId::kBERT}, soc);
  const CacheCounters counts;
  exec::PlanCache cache(1);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(exec::make_key(soc, fx.models, {}), compile_window(fx));
  cache.insert(bucket_key(1), compile_window(fx));  // evicts the only seed

  const auto probe = window_of({ModelId::kResNet50, ModelId::kAlexNet});
  EXPECT_EQ(cache.find_near(exec::make_key(soc, probe, {})), nullptr);
  EXPECT_EQ(counts.evictions(), 1u);
  EXPECT_EQ(counts.warm_hits(), 0u);
}

TEST(PlanCachePeek, DoesNotBumpLruOrTouchStats) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);
  const CacheCounters counts;
  const exec::PlanKey a = bucket_key(0);
  exec::PlanCache cache(2);
  cache.insert(a, compile_window(fx));
  cache.insert(bucket_key(1), compile_window(fx));  // a is LRU
  ASSERT_NE(cache.peek(a), nullptr);                // peek must NOT bump a
  EXPECT_EQ(cache.peek(bucket_key(3)), nullptr);
  cache.insert(bucket_key(2), compile_window(fx));  // evicts a (still LRU)
  EXPECT_EQ(cache.peek(a), nullptr);
  EXPECT_EQ(counts.hits(), 0u);
  EXPECT_EQ(counts.misses(), 0u);
}

TEST(PlanCachePeek, PeekNearAgreesWithFindNearAndMutatesNothing) {
  // Two caches see the same seeded insert / find / find_near sequence; one
  // also answers peek_near before every operation.  peek_near must name the
  // entry find_near then returns, and the two caches must stay in lockstep:
  // same counts, same entries surviving the same evictions.  Both count
  // into the same registry, so each cache's operations are tallied by the
  // counter deltas they cause.
  const std::vector<ModelId> pool = {ModelId::kResNet50, ModelId::kBERT,
                                     ModelId::kSqueezeNet, ModelId::kAlexNet};
  const std::vector<Soc> socs = {Soc::kirin990(), Soc::snapdragon870()};
  const std::uint64_t no_npu =
      ((1ull << Soc::kirin990().num_processors()) - 1) & ~1ull;
  std::mt19937 rng(2024);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto random_key = [&] {
    std::vector<ModelId> ids(1 + pick(3));
    for (ModelId& id : ids) id = pool[pick(pool.size())];
    exec::PlanEnv env;
    if (pick(4) == 0) env.avail_mask = no_npu;
    return exec::make_key(socs[pick(socs.size())], window_of(ids),
                                     {}, env);
  };

  const CacheCounters counts;
  using Tally = std::array<std::uint64_t, 4>;  // hits, misses, warm, evictions
  const auto now = [&counts] {
    return Tally{counts.hits(), counts.misses(), counts.warm_hits(),
                 counts.evictions()};
  };
  Tally peeked_total{};
  Tally plain_total{};
  const auto tally = [&now](Tally& total, const auto& op) {
    const Tally before = now();
    op();
    const Tally after = now();
    for (std::size_t i = 0; i < total.size(); ++i) {
      total[i] += after[i] - before[i];
    }
  };

  exec::PlanCache peeked(6);
  exec::PlanCache plain(6);
  std::map<const exec::CompiledPlan*, exec::PlanKey> key_of_peeked;
  std::map<const exec::CompiledPlan*, exec::PlanKey> key_of_plain;
  std::vector<exec::PlanKey> keys;
  std::size_t near_found = 0;
  for (int step = 0; step < 400; ++step) {
    const exec::PlanKey key = random_key();
    const exec::CompiledPlan* peek = nullptr;
    tally(peeked_total, [&] { peek = peeked.peek_near(key); });
    switch (pick(3)) {
      case 0:
        tally(peeked_total, [&] { key_of_peeked[&peeked.insert(key, {})] = key; });
        tally(plain_total, [&] { key_of_plain[&plain.insert(key, {})] = key; });
        keys.push_back(key);
        break;
      case 1: {
        bool in_peeked = false;
        bool in_plain = false;
        tally(peeked_total, [&] { in_peeked = peeked.find(key) != nullptr; });
        tally(plain_total, [&] { in_plain = plain.find(key) != nullptr; });
        EXPECT_EQ(in_peeked, in_plain);
        break;
      }
      default: {
        const exec::CompiledPlan* a = nullptr;
        const exec::CompiledPlan* b = nullptr;
        tally(peeked_total, [&] { a = peeked.find_near(key); });
        tally(plain_total, [&] { b = plain.find_near(key); });
        ASSERT_EQ(a, peek) << "step " << step;
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          EXPECT_EQ(key_of_peeked[a], key_of_plain[b]);
          ++near_found;
        }
        break;
      }
    }
    const exec::PlanKey extra = random_key();
    tally(peeked_total, [&] { (void)peeked.peek_near(extra); });
    EXPECT_EQ(peeked_total[0], plain_total[0]);
    EXPECT_EQ(peeked_total[1], plain_total[1]);
    EXPECT_EQ(peeked_total[2], plain_total[2]);
    EXPECT_EQ(peeked_total[3], plain_total[3]);
  }
  EXPECT_GT(near_found, 10u);
  EXPECT_GT(plain_total[3], 10u);
  for (const exec::PlanKey& key : keys) {
    EXPECT_EQ(peeked.peek(key) != nullptr, plain.peek(key) != nullptr);
  }
}

TEST(PlanCache, CapacityClampedToAtLeastOne) {
  const Soc soc = Soc::kirin990();
  Fixture fx({ModelId::kSqueezeNet}, soc);

  exec::PlanCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(bucket_key(0), compile_window(fx));
  cache.insert(bucket_key(1), compile_window(fx));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(bucket_key(1)), nullptr);
}

}  // namespace
}  // namespace h2p
