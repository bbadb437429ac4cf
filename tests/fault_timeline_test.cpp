// FaultScript's compiled segment timeline against the linear scans it
// replaced: for every query, on sampled scripts (with and without weather,
// all three SoCs), hand-built corner cases and random overlapping scripts,
// the timeline must return exactly (==, bit for bit) what a scan over every
// event returns, at every edge, a hair either side of every cut point,
// between edges, and at 0, -1, +-inf and NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/fault_injector.h"
#include "soc/soc.h"
#include "util/rng.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kEps = FaultScript::kEdgeEps;

// ---------------------------------------------------------------------------
// Oracle: the linear scans over the sorted events, one per query.

bool covers(const FaultEvent& e, double t_ms) {
  return t_ms >= e.begin_ms - kEps && t_ms < e.end_ms - kEps;
}

bool scan_available(const std::vector<FaultEvent>& events, std::size_t proc,
                    double t_ms) {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kDropout && e.proc_idx == proc && covers(e, t_ms)) {
      return false;
    }
  }
  return true;
}

bool scan_permanently_down(const std::vector<FaultEvent>& events,
                           std::size_t proc, double t_ms) {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kDropout && e.proc_idx == proc &&
        std::isinf(e.end_ms) && covers(e, t_ms)) {
      return true;
    }
  }
  return false;
}

double scan_slowdown(const std::vector<FaultEvent>& events, std::size_t proc,
                     double t_ms) {
  double factor = 1.0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kSlowdown && e.proc_idx == proc && covers(e, t_ms)) {
      factor *= e.factor;
    }
  }
  return std::max(factor, 0.05);
}

double scan_bus_factor(const std::vector<FaultEvent>& events, double t_ms) {
  double factor = 1.0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kBusDegrade && covers(e, t_ms)) factor *= e.factor;
  }
  return std::max(factor, 0.05);
}

std::uint64_t scan_availability_mask(const std::vector<FaultEvent>& events,
                                     double t_ms, std::size_t num_procs) {
  std::uint64_t mask = num_procs == 64 ? ~0ull : (1ull << num_procs) - 1;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kDropout && e.proc_idx < num_procs &&
        covers(e, t_ms)) {
      mask &= ~(1ull << e.proc_idx);
    }
  }
  return mask;
}

double scan_next_change_after(const std::vector<FaultEvent>& events,
                              double t_ms) {
  double next = kInf;
  for (const FaultEvent& e : events) {
    if (e.begin_ms > t_ms + kEps) next = std::min(next, e.begin_ms);
    if (std::isfinite(e.end_ms) && e.end_ms > t_ms + kEps) {
      next = std::min(next, e.end_ms);
    }
  }
  return next;
}

std::vector<double> scan_edges(const std::vector<FaultEvent>& events) {
  std::vector<double> out;
  for (const FaultEvent& e : events) {
    out.push_back(e.begin_ms);
    if (std::isfinite(e.end_ms)) out.push_back(e.end_ms);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------

/// Every query time worth asking: each edge and e +- eps, both neighbours
/// of every cut point e - eps, midpoints between consecutive edges, and
/// the degenerate times.
std::vector<double> query_points(const FaultScript& script) {
  const std::vector<double> edges = scan_edges(script.events());
  std::vector<double> ts = {0.0, -1.0, kInf, -kInf, kNaN};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double e = edges[i];
    const double cut = e - kEps;
    ts.insert(ts.end(), {e, e + kEps, cut, std::nextafter(cut, -kInf),
                         std::nextafter(cut, kInf)});
    if (i + 1 < edges.size()) ts.push_back(0.5 * (e + edges[i + 1]));
  }
  return ts;
}

/// Asserts every query agrees with its scan on processors 0..P+1 plus
/// indices past the 64-bit mask.
void expect_matches_scans(const FaultScript& script, std::size_t P) {
  const std::vector<FaultEvent>& events = script.events();
  EXPECT_EQ(script.edges(), scan_edges(events));
  std::vector<std::size_t> procs;
  for (std::size_t p = 0; p < P + 2; ++p) procs.push_back(p);
  procs.insert(procs.end(), {63, 64, 1000});
  for (const double t : query_points(script)) {
    SCOPED_TRACE(testing::Message() << "t = " << t);
    for (const std::size_t p : procs) {
      EXPECT_EQ(script.available(p, t), scan_available(events, p, t)) << p;
      EXPECT_EQ(script.permanently_down(p, t),
                scan_permanently_down(events, p, t))
          << p;
      EXPECT_EQ(script.slowdown(p, t), scan_slowdown(events, p, t)) << p;
    }
    EXPECT_EQ(script.bus_factor(t), scan_bus_factor(events, t));
    for (const std::size_t n : {P, std::size_t{0}, std::size_t{64}}) {
      EXPECT_EQ(script.availability_mask(t, n),
                scan_availability_mask(events, t, n))
          << n;
    }
    EXPECT_EQ(script.next_change_after(t), scan_next_change_after(events, t));
  }
}

TEST(FaultTimeline, SampledScriptsMatchScans) {
  for (const Soc& soc : {Soc::kirin990(), Soc::snapdragon778g(),
                         Soc::snapdragon870()}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 4242ull}) {
      SCOPED_TRACE(testing::Message() << soc.name() << " seed " << seed);
      FaultSamplerOptions plain;
      plain.mean_gap_ms = 40.0;
      const FaultScript faults = FaultScript::sample(soc, seed, plain);
      ASSERT_FALSE(faults.empty());
      expect_matches_scans(faults, soc.num_processors());

      FaultSamplerOptions weather = plain;
      weather.mean_weather_gap_ms = 30.0;
      weather.mean_weather_duration_ms = 120.0;
      const FaultScript stormy = FaultScript::sample(soc, seed, weather);
      ASSERT_FALSE(stormy.weather().empty());
      expect_matches_scans(stormy, soc.num_processors());
    }
  }
}

TEST(FaultTimeline, OverlappingSlowdownsMultiplyInEventOrder) {
  // Three windows stacked on processor 1 whose product rounds differently
  // in event order than reversed, plus a pile deep enough to hit the clamp.
  const FaultScript s({
      FaultEvent{FaultKind::kSlowdown, 1, 0.0, 50.0, 0.3},
      FaultEvent{FaultKind::kSlowdown, 1, 10.0, 40.0, 0.7},
      FaultEvent{FaultKind::kSlowdown, 1, 20.0, 30.0, 0.8},
      FaultEvent{FaultKind::kSlowdown, 1, 25.0, 26.0, 0.1},
      FaultEvent{FaultKind::kSlowdown, 0, 15.0, 35.0, 1.0 / 3.0},
  });
  expect_matches_scans(s, 2);
  ASSERT_NE((0.3 * 0.7) * 0.8, (0.8 * 0.7) * 0.3);
  EXPECT_EQ(s.slowdown(1, 22.0), (0.3 * 0.7) * 0.8);
  EXPECT_EQ(s.slowdown(1, 25.5), 0.05);  // 0.0168, clamped
  EXPECT_EQ(s.slowdown(1, 45.0), 0.3);
}

TEST(FaultTimeline, OverlappingBusDegradesMatchScans) {
  const FaultScript s({
      FaultEvent{FaultKind::kBusDegrade, 0, 0.0, 30.0, 0.6},
      FaultEvent{FaultKind::kBusDegrade, 7, 10.0, 20.0, 0.3},
      FaultEvent{FaultKind::kBusDegrade, 3, 15.0, 40.0, 0.45},
      FaultEvent{FaultKind::kBusDegrade, 0, 16.0, 17.0, 0.25},
      // kBusDegrade ignores its processor index, so any index is allowed.
      FaultEvent{FaultKind::kBusDegrade, 500, 50.0, 60.0, 0.8},
  });
  ASSERT_TRUE(s.has_bus_degrade());
  expect_matches_scans(s, 4);
  EXPECT_EQ(s.bus_factor(16.5), 0.05);  // 0.6 * 0.3 * 0.45 * 0.25, clamped
  EXPECT_EQ(s.bus_factor(55.0), 0.8);
  EXPECT_EQ(s.slowdown(0, 16.5), 1.0);
}

TEST(FaultTimeline, TouchingWindowsHandOver) {
  // end == next begin on one processor, for every kind: the state flips at
  // the shared edge with no gap and no overlap.
  const FaultScript s({
      FaultEvent{FaultKind::kDropout, 0, 10.0, 20.0, 1.0},
      FaultEvent{FaultKind::kDropout, 0, 20.0, 30.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 1, 10.0, 20.0, 0.5},
      FaultEvent{FaultKind::kSlowdown, 1, 20.0, 30.0, 0.25},
      FaultEvent{FaultKind::kBusDegrade, 0, 5.0, 20.0, 0.5},
      FaultEvent{FaultKind::kBusDegrade, 0, 20.0, 25.0, 0.7},
  });
  expect_matches_scans(s, 2);
  EXPECT_FALSE(s.available(0, 20.0));
  EXPECT_EQ(s.slowdown(1, 20.0), 0.25);
  EXPECT_EQ(s.slowdown(1, 20.0 - 2e-9), 0.5);
  EXPECT_EQ(s.bus_factor(20.0 - 0.5e-9), 0.7);  // inside the edge tolerance
  EXPECT_EQ(s.next_change_after(10.0), 20.0);
  EXPECT_EQ(s.next_change_after(20.0 - 0.5e-9), 25.0);
}

TEST(FaultTimeline, PermanentDropoutsNeverRecover) {
  const FaultScript s({
      FaultEvent{FaultKind::kDropout, 2, 40.0, kInf, 1.0},
      FaultEvent{FaultKind::kDropout, 2, 10.0, 50.0, 1.0},
      FaultEvent{FaultKind::kDropout, 0, 5.0, kInf, 1.0},
      FaultEvent{FaultKind::kDropout, 63, 7.0, kInf, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 45.0, 60.0, 0.5},
  });
  expect_matches_scans(s, 4);
  EXPECT_TRUE(s.permanently_down(2, 1e300));
  EXPECT_FALSE(s.permanently_down(2, 30.0));  // only the transient covers
  EXPECT_FALSE(s.permanently_down(2, kInf));  // t < end - eps fails at +inf
  EXPECT_EQ(s.availability_mask(100.0, 64),
            ~((1ull << 0) | (1ull << 2) | (1ull << 63)));
  EXPECT_EQ(s.next_change_after(60.0), kInf);
}

TEST(FaultTimeline, EmptyScriptIsHealthyEverywhere) {
  const FaultScript s;
  EXPECT_TRUE(s.edges().empty());
  expect_matches_scans(s, 3);
  EXPECT_EQ(s.availability_mask(kNaN, 3), 0b111u);
  EXPECT_EQ(s.next_change_after(0.0), kInf);
}

TEST(FaultTimeline, RandomOverlappingScriptsMatchScans) {
  // Coarse time grid: coincident begins, touching windows and identical
  // windows on one processor come up often; the fine jitter adds edges one
  // or two ulps apart.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t P = 1 + rng.index(6);
    std::vector<FaultEvent> events;
    const std::size_t n = 1 + rng.index(24);
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent e;
      e.kind = static_cast<FaultKind>(rng.uniform_int(0, 2));
      e.proc_idx = rng.index(P);
      e.begin_ms = 5.0 * static_cast<double>(rng.index(12));
      if (rng.chance(0.2)) e.begin_ms = std::nextafter(e.begin_ms + 1.0, kInf);
      e.end_ms = e.begin_ms + 5.0 * static_cast<double>(1 + rng.index(6));
      if (e.kind == FaultKind::kDropout && rng.chance(0.2)) e.end_ms = kInf;
      e.factor = rng.uniform(0.05, 1.0);
      events.push_back(e);
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_matches_scans(FaultScript(std::move(events)), P);
  }
}

TEST(FaultTimeline, RejectsProcessorsPastTheMask) {
  for (const FaultKind kind : {FaultKind::kSlowdown, FaultKind::kDropout}) {
    EXPECT_THROW(FaultScript({FaultEvent{kind, 64, 0.0, 10.0, 0.5}}),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(
      FaultScript({FaultEvent{FaultKind::kDropout, 63, 0.0, 10.0, 1.0}}));
}

}  // namespace
}  // namespace h2p
