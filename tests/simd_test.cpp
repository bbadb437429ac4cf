// util/simd.h fixed-order kernels, the 64-byte arena alignment contract, and
// the kernels-vs-reference equivalence property suite.
//
// The equivalence suite is the enforcement arm of the determinism contract
// documented in util/simd.h: the DES / scorer built on the fixed-order
// kernels must be bit-identical to `sim/pipeline_sim_reference.cpp` (a
// hand-coded scalar oracle with no simd.h dependency) on every calibrated
// SoC, for chain, DAG and faulted workloads.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bubbles.h"
#include "core/incremental.h"
#include "core/planner.h"
#include "sim/fault_injector.h"
#include "sim/pipeline_sim.h"
#include "sim/pipeline_sim_reference.h"
#include "test_helpers.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/simd.h"

namespace h2p {
namespace {

using testing_util::Fixture;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Kernel primitives vs the documented scalar reduction order.

/// The documented fixed order, written out longhand: term q into
/// accumulator q % 4 ascending, halves combined (a0 + a1) + (a2 + a3).
double scalar_fixed_dot(const double* a, const double* b, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t q = 0; q < n; ++q) acc[q % 4] += a[q] * b[q];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::vector<double> random_padded(Rng& rng, std::size_t n, std::size_t pad,
                                  double lo, double hi) {
  std::vector<double> v(pad, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(lo, hi);
  return v;
}

TEST(Simd, PaddedSizeRoundsUpToLaneMultiple) {
  EXPECT_EQ(simd::padded_size(0), 0u);
  EXPECT_EQ(simd::padded_size(1), 4u);
  EXPECT_EQ(simd::padded_size(4), 4u);
  EXPECT_EQ(simd::padded_size(5), 8u);
  EXPECT_EQ(simd::padded_size(11), 12u);
}

TEST(Simd, FixedDotMatchesDocumentedScalarOrder) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.index(24);
    const std::size_t pad = simd::padded_size(n);
    const std::vector<double> a = random_padded(rng, n, pad, 0.0, 2.0);
    const std::vector<double> b = random_padded(rng, n, pad, 0.0, 2.0);
    EXPECT_EQ(simd::fixed_dot(a.data(), b.data(), pad),
              scalar_fixed_dot(a.data(), b.data(), pad))
        << "n=" << n;
  }
}

TEST(Simd, FixedDotZeroPaddingInvariance) {
  // The same logical data padded to different lane multiples must reduce
  // bit-identically: zero terms land in some accumulator as +0.0, an exact
  // no-op on the nonnegative partial sums these kernels see.
  Rng rng(202);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.index(10);
    const std::size_t pad_small = simd::padded_size(n);
    const std::size_t pad_big = pad_small + 8;
    std::vector<double> a = random_padded(rng, n, pad_big, 0.0, 3.0);
    std::vector<double> b = random_padded(rng, n, pad_big, 0.0, 3.0);
    EXPECT_EQ(simd::fixed_dot(a.data(), b.data(), pad_small),
              simd::fixed_dot(a.data(), b.data(), pad_big));
  }
}

TEST(Simd, FixedMaxMatchesScalarAndIgnoresPadding) {
  Rng rng(303);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.index(24);
    const std::size_t pad = simd::padded_size(n);
    const std::vector<double> x = random_padded(rng, n, pad + 4, 0.0, 50.0);
    double expect = 0.0;
    for (std::size_t i = 0; i < n; ++i) expect = std::max(expect, x[i]);
    EXPECT_EQ(simd::fixed_max(x.data(), pad, 0.0), expect);
    EXPECT_EQ(simd::fixed_max(x.data(), pad + 4, 0.0), expect);
  }
  // All-zero input: the baseline wins.
  const std::vector<double> zeros(8, 0.0);
  EXPECT_EQ(simd::fixed_max(zeros.data(), 8, 0.0), 0.0);
}

TEST(Simd, MinPositiveRatioMatchesScalarSkipLoop) {
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.index(12);
    const std::size_t pad = simd::padded_size(n);
    std::vector<double> num = random_padded(rng, n, pad, 0.0, 20.0);
    std::vector<double> den(pad, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of live rates, frozen (0) entries, and tail padding — the
      // shapes the DES min-dt search produces.
      den[i] = (rng.index(4) == 0) ? 0.0 : rng.uniform(0.05, 1.0);
    }
    double expect = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (den[i] <= 0.0) continue;
      expect = std::min(expect, num[i] / std::max(den[i], 1e-9));
    }
    EXPECT_EQ(simd::min_positive_ratio(num.data(), den.data(), pad, 1e-9),
              expect)
        << "n=" << n;
  }
  const std::vector<double> zeros(4, 0.0);
  EXPECT_EQ(simd::min_positive_ratio(zeros.data(), zeros.data(), 4, 1e-9),
            kInf);
}

TEST(Simd, MulSubInplaceMatchesScalarElementwise) {
  Rng rng(505);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t pad = simd::padded_size(1 + rng.index(16));
    std::vector<double> x = random_padded(rng, pad, pad, 0.0, 30.0);
    const std::vector<double> r = random_padded(rng, pad, pad, 0.0, 1.0);
    const double dt = rng.uniform(0.0, 5.0);
    std::vector<double> expect = x;
    for (std::size_t i = 0; i < pad; ++i) expect[i] -= r[i] * dt;
    simd::mul_sub_inplace(x.data(), r.data(), dt, pad);
    EXPECT_EQ(x, expect);
  }
}

TEST(Simd, FixedMatvecColsMatchesFixedDotPerVictim) {
  // The DES rate kernel prices every victim with one column-major pass;
  // each out[v] must be exactly fixed_dot over victim v's row.
  Rng rng(606);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.index(16);
    const std::size_t pad = simd::padded_size(n);
    std::vector<double> cols(pad * pad, 0.0);
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t v = 0; v < n; ++v) cols[q * pad + v] = rng.uniform(0.0, 2.0);
    }
    const std::vector<double> x = random_padded(rng, n, pad, 0.0, 3.0);
    std::vector<double> out(pad, -1.0);
    simd::fixed_matvec_cols(cols.data(), x.data(), out.data(), pad);
    for (std::size_t v = 0; v < pad; ++v) {
      std::vector<double> row(pad);
      for (std::size_t q = 0; q < pad; ++q) row[q] = cols[q * pad + v];
      EXPECT_EQ(out[v], simd::fixed_dot(row.data(), x.data(), pad))
          << "n=" << n << " victim " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Arena alignment: every carve must hand back 64-byte aligned storage so the
// lane kernels and cacheline-sized spans never straddle or fault.

static_assert(util::MonotonicArena::kAlignment >= 64,
              "arena consumers assume cacheline-aligned spans");

TEST(Arena, EveryCarveIs64ByteAligned) {
  util::MonotonicArena arena;
  arena.reserve(4096);
  // Deliberately odd sizes and mixed element types: each carve must still
  // start on a fresh 64-byte boundary.
  const std::span<double> a = arena.make_span<double>(3);
  const std::span<std::uint8_t> b = arena.make_span<std::uint8_t>(7);
  const std::span<double> c = arena.make_span<double>(5);
  const std::span<std::uint32_t> d = arena.make_span<std::uint32_t>(9);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
}

TEST(Arena, AlignmentSurvivesResetAndRegrowth) {
  util::MonotonicArena arena;
  for (int round = 0; round < 4; ++round) {
    arena.reset();
    arena.reserve(256u << round);  // forces regrowth on later rounds
    for (int k = 0; k < 8; ++k) {
      const std::span<double> s = arena.make_span<double>(1 + k);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 64, 0u)
          << "round " << round << " carve " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence property suite: the kernel-based DES vs the frozen scalar oracle,
// bitwise, across the calibrated SoCs and workload shapes.

void expect_identical(const Timeline& a, const Timeline& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.num_procs, b.num_procs);
  EXPECT_EQ(a.num_models, b.num_models);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].model_idx, b.tasks[i].model_idx) << "task " << i;
    EXPECT_EQ(a.tasks[i].seq_in_model, b.tasks[i].seq_in_model) << "task " << i;
    EXPECT_EQ(a.tasks[i].proc_idx, b.tasks[i].proc_idx) << "task " << i;
    EXPECT_EQ(a.tasks[i].start_ms, b.tasks[i].start_ms) << "task " << i;
    EXPECT_EQ(a.tasks[i].end_ms, b.tasks[i].end_ms) << "task " << i;
    EXPECT_EQ(a.tasks[i].solo_ms, b.tasks[i].solo_ms) << "task " << i;
  }
}

std::vector<SimTask> random_chain_tasks(Rng& rng, std::size_t num_procs,
                                        bool with_alt) {
  const std::size_t num_models = 2 + rng.index(4);
  std::vector<SimTask> tasks;
  for (std::size_t m = 0; m < num_models; ++m) {
    const std::size_t chain = 1 + rng.index(4);
    for (std::size_t s = 0; s < chain; ++s) {
      SimTask t;
      t.model_idx = m;
      t.seq_in_model = s;
      t.proc_idx = rng.index(num_procs);
      t.solo_ms = rng.uniform(0.5, 20.0);
      t.sensitivity = rng.uniform(0.0, 1.0);
      t.intensity = rng.uniform(0.0, 1.0);
      t.arrival_ms = (s == 0) ? rng.uniform(0.0, 10.0) : 0.0;
      if (with_alt) {
        t.alt.resize(num_procs);
        for (std::size_t q = 0; q < num_procs; ++q) {
          t.alt[q] = SimTask::AltCost{rng.uniform(0.5, 30.0),
                                      rng.uniform(0.0, 1.0),
                                      rng.uniform(0.0, 1.0)};
        }
      }
      tasks.push_back(t);
    }
  }
  return tasks;
}

std::vector<SimTask> random_dag_tasks(Rng& rng, std::size_t num_procs) {
  const std::size_t num_models = 2 + rng.index(3);
  std::vector<SimTask> tasks;
  for (std::size_t m = 0; m < num_models; ++m) {
    const std::size_t base = tasks.size();
    const std::size_t branches = 2 + rng.index(2);
    auto make_task = [&](std::size_t seq, double solo_hi) {
      SimTask t;
      t.model_idx = m;
      t.seq_in_model = seq;
      t.proc_idx = rng.index(num_procs);
      t.solo_ms = rng.uniform(1.0, solo_hi);
      t.sensitivity = rng.uniform(0.0, 1.0);
      t.intensity = rng.uniform(0.0, 1.0);
      t.explicit_deps = true;
      return t;
    };
    tasks.push_back(make_task(0, 8.0));
    for (std::size_t br = 0; br < branches; ++br) {
      SimTask t = make_task(1, 12.0);
      t.deps = {base};
      tasks.push_back(t);
    }
    SimTask join = make_task(2, 6.0);
    for (std::size_t br = 0; br < branches; ++br) join.deps.push_back(base + 1 + br);
    tasks.push_back(join);
  }
  return tasks;
}

// gtest lists a parameter that has no printer by its raw bytes, and ctest
// names each case after that listing. The first field is an index rather
// than a pointer to the name, so the listed names do not move whenever the
// binary's string layout does.
constexpr const char* kSocNames[] = {"Kirin990", "Snapdragon778g",
                                     "Snapdragon870"};

struct SocCase {
  std::size_t name_index;
  Soc (*make)();
};

// gtest's default printer would show the function pointer's bytes, which
// change with each build's address layout; the SoC name is stable.
void PrintTo(const SocCase& c, std::ostream* os) { *os << kSocNames[c.name_index]; }

class SimdEquivalence : public ::testing::TestWithParam<SocCase> {};

TEST_P(SimdEquivalence, ChainTimelinesBitIdenticalToReference) {
  const Soc soc = GetParam().make();
  for (int seed = 0; seed < 18; ++seed) {
    Rng rng(9100 + seed);
    const std::vector<SimTask> tasks =
        random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/false);
    for (const std::vector<SimTask>& set :
         {tasks, testing_util::without_intensity(tasks)}) {
      expect_identical(simulate(soc, set), sim::simulate_reference(soc, set));
    }
  }
}

TEST_P(SimdEquivalence, DagTimelinesBitIdenticalToReference) {
  const Soc soc = GetParam().make();
  for (int seed = 0; seed < 18; ++seed) {
    Rng rng(9300 + seed);
    const std::vector<SimTask> tasks =
        random_dag_tasks(rng, soc.num_processors());
    expect_identical(simulate(soc, tasks, {}),
                     sim::simulate_reference(soc, tasks, {}));
  }
}

TEST_P(SimdEquivalence, FaultedTimelinesBitIdenticalToReference) {
  const Soc soc = GetParam().make();
  const FaultScript faults({
      FaultEvent{FaultKind::kDropout, 1, 5.0, 12.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 2.0, 25.0, 0.5},
      FaultEvent{FaultKind::kDropout, 0, 8.0, kInf, 1.0},  // permanent
  });
  SimOptions opt;
  opt.faults = &faults;
  for (int seed = 0; seed < 18; ++seed) {
    Rng rng(9500 + seed);
    const std::vector<SimTask> tasks =
        random_chain_tasks(rng, soc.num_processors(), /*with_alt=*/true);
    expect_identical(simulate(soc, tasks, opt),
                     sim::simulate_reference(soc, tasks, opt));
  }
}

TEST_P(SimdEquivalence, ScorerAndPlannerBitExactOnEachSoc) {
  Fixture fx(testing_util::mixed_four(), GetParam().make());
  const std::size_t K = fx.soc.num_processors();
  PipelinePlan plan = horizontal_plan(*fx.eval, K);
  IncrementalStaticScorer inc(*fx.eval, plan);
  EXPECT_EQ(inc.base_score(), fx.eval->makespan_ms(plan, true));

  Rng rng(9700);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t i = rng.index(plan.models.size());
    const std::size_t n =
        fx.eval->model(plan.models[i].model_index).num_layers();
    std::vector<Slice> cand(K, Slice{0, 0});
    cand[rng.index(K)] = Slice{0, n};
    PipelinePlan edited = plan;
    edited.models[i].slices = cand;
    EXPECT_EQ(inc.score_with(i, cand), fx.eval->makespan_ms(edited, true))
        << "trial " << trial;
  }

  // The chosen plan itself is reproducible: two cold planner runs agree on
  // scores and slice boundaries exactly.
  const PlannerReport a = Hetero2PipePlanner(*fx.eval).plan();
  const PlannerReport b = Hetero2PipePlanner(*fx.eval).plan();
  EXPECT_EQ(a.static_makespan_ms, b.static_makespan_ms);
  ASSERT_EQ(a.plan.models.size(), b.plan.models.size());
  for (std::size_t i = 0; i < a.plan.models.size(); ++i) {
    EXPECT_EQ(a.plan.models[i].slices, b.plan.models[i].slices) << "slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSocs, SimdEquivalence,
    ::testing::Values(SocCase{0, &Soc::kirin990},
                      SocCase{1, &Soc::snapdragon778g},
                      SocCase{2, &Soc::snapdragon870}),
    [](const ::testing::TestParamInfo<SocCase>& info) {
      return std::string(kSocNames[info.param.name_index]);
    });

}  // namespace
}  // namespace h2p
