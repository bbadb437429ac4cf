#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "util/csv.h"
#include "util/lru_map.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace h2p {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexZeroSizeIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.index(0), 0u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// The noisy RNG stream must not move: for stddev > 0 every draw is
// bit-identical to a fresh std::normal_distribution(mean, stddev) per call.
TEST(Rng, GaussianMatchesNormalDistributionDrawForDraw) {
  for (const std::uint64_t seed : {1ull, 42ull, 7919ull}) {
    for (const double mean : {0.0, -3.5, 120.25}) {
      for (const double stddev : {1e-3, 0.05, 1.0, 17.0}) {
        Rng rng(seed);
        std::mt19937_64 engine(seed);
        for (int i = 0; i < 64; ++i) {
          std::normal_distribution<double> reference(mean, stddev);
          EXPECT_EQ(rng.gaussian(mean, stddev), reference(engine))
              << "seed " << seed << " mean " << mean << " stddev " << stddev
              << " draw " << i;
        }
      }
    }
  }
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndAdvancesLikeUnitStddev) {
  Rng zero(11), unit(11);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(zero.gaussian(2.5, 0.0), 2.5);
    (void)unit.gaussian(2.5, 1.0);
    EXPECT_EQ(zero.uniform(), unit.uniform()) << "draw " << i;
  }
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_EQ(mean(xs), 0.0);
  EXPECT_EQ(stddev(xs), 0.0);
  EXPECT_EQ(percentile(xs, 0.5), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 5.0);
}

TEST(Stats, SummaryFields) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Stats, LinearFitDegenerate) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {2.0};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_EQ(fit.slope, 0.0);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, HandlesRaggedRows) {
  Table t({"a"});
  t.add_row({"1", "extra"});
  t.add_row({});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "/tmp/h2p_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row(std::vector<std::string>{"x,y", "plain"});
    csv.add_row(std::vector<double>{1.5, 2.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::filesystem::remove(path);
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}), std::runtime_error);
}

// A copy's recency list would point at the source map's keys.
static_assert(!std::is_copy_constructible_v<LruMap<int, int>>);
static_assert(!std::is_copy_assignable_v<LruMap<int, int>>);
static_assert(std::is_move_constructible_v<LruMap<int, int>>);
static_assert(std::is_move_assignable_v<LruMap<int, int>>);

/// The keys of `map`, most recently used first.
std::vector<int> recency(const LruMap<int, std::string>& map) {
  std::vector<int> keys;
  (void)map.find_key_if([&keys](int key) {
    keys.push_back(key);
    return false;
  });
  return keys;
}

TEST(LruMap, EvictsLeastRecentlyUsedFirst) {
  LruMap<int, std::string> map(3);
  EXPECT_FALSE(map.insert(1, "one"));
  EXPECT_FALSE(map.insert(2, "two"));
  EXPECT_FALSE(map.insert(3, "three"));
  EXPECT_TRUE(map.insert(4, "four"));  // evicts 1
  EXPECT_TRUE(map.insert(5, "five"));  // evicts 2
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.peek(1), nullptr);
  EXPECT_EQ(map.peek(2), nullptr);
  EXPECT_EQ(recency(map), (std::vector<int>{5, 4, 3}));
}

TEST(LruMap, FindBumpsAndPeekDoesNot) {
  LruMap<int, std::string> map(2);
  map.insert(1, "one");
  map.insert(2, "two");
  ASSERT_NE(map.peek(1), nullptr);
  EXPECT_EQ(*map.peek(1), "one");
  EXPECT_EQ(recency(map), (std::vector<int>{2, 1}));
  map.insert(3, "three");  // 1 is still least recent
  EXPECT_EQ(map.peek(1), nullptr);

  ASSERT_NE(map.find(2), nullptr);  // bumps 2 over 3
  EXPECT_EQ(recency(map), (std::vector<int>{2, 3}));
  map.insert(4, "four");  // evicts 3
  EXPECT_NE(map.peek(2), nullptr);
  EXPECT_EQ(map.peek(3), nullptr);
  EXPECT_EQ(map.find(3), nullptr);
}

TEST(LruMap, WalkIsMostRecentlyUsedFirstAndStopsAtTheMatch) {
  LruMap<int, std::string> map(4);
  for (int k = 1; k <= 4; ++k) map.insert(k, std::to_string(k));
  (void)map.find(2);
  map.insert(3, "three");  // an overwrite bumps too
  EXPECT_EQ(recency(map), (std::vector<int>{3, 2, 4, 1}));

  std::vector<int> visited;
  const int* even = map.find_key_if([&visited](int key) {
    visited.push_back(key);
    return key % 2 == 0;
  });
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(*even, 2);
  EXPECT_EQ(visited, (std::vector<int>{3, 2}));
  EXPECT_EQ(map.find_key_if([](int key) { return key > 4; }), nullptr);
  EXPECT_EQ(recency(map), (std::vector<int>{3, 2, 4, 1}));  // walking bumps nothing
}

TEST(LruMap, OverwriteKeepsTheValueAddress) {
  LruMap<int, std::string> map(2);
  map.insert(1, "one");
  const std::string* before = map.peek(1);
  EXPECT_FALSE(map.insert(1, "uno"));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.peek(1), before);
  EXPECT_EQ(*before, "uno");
}

TEST(LruMap, CapacityClampsToOne) {
  LruMap<int, std::string> map(0);
  EXPECT_EQ(map.capacity(), 1u);
  map.insert(1, "one");
  EXPECT_TRUE(map.insert(2, "two"));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.peek(1), nullptr);
  EXPECT_NE(map.peek(2), nullptr);
}

TEST(LruMap, MoveCarriesEntriesAndOrder) {
  LruMap<int, std::string> source(2);
  source.insert(1, "one");
  source.insert(2, "two");
  const std::string* one = source.peek(1);
  LruMap<int, std::string> moved(std::move(source));
  EXPECT_EQ(moved.peek(1), one);
  EXPECT_EQ(recency(moved), (std::vector<int>{2, 1}));
  moved.insert(3, "three");  // evicts 1 through the moved recency list
  EXPECT_EQ(moved.peek(1), nullptr);
  EXPECT_EQ(recency(moved), (std::vector<int>{3, 2}));
}

}  // namespace
}  // namespace h2p
