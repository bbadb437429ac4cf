#pragma once

#include <cstddef>
#include <limits>

// Fixed-order kernels for the planning core's hot reductions.
//
// Every kernel here works in blocks of **kLanes = 4 doubles** and keeps four
// accumulators, one per position in the block.  The width is fixed because
// it defines the arithmetic: a reduction's floating-point operation sequence
// depends only on the documented order below, so the planner, the DES and
// the frozen reference all agree to the last ulp.
//
// ## The fixed reduction-order contract
//
// Order-sensitive reductions (the Eq. 2 contention sum) follow ONE
// documented pairwise-tree order, everywhere:
//
//   1. term t_q is accumulated into accumulator (q mod 4), ascending q
//      within each accumulator:   l_j = (..(t_j + t_{j+4}) + t_{j+8}) + ...
//   2. the four accumulators combine in the fixed tree (l0 + l1) + (l2 + l3).
//
// Multiplies and adds are kept **unfused** (no FMA; the build passes
// -ffp-contract=off).  `sim/pipeline_sim_reference.cpp` hand-codes the same
// order with four scalar accumulators (no dependency on this header), and
// `core/bubbles.cpp` / `core/incremental.cpp` route through `fixed_dot`,
// which is how the SoA-vs-reference bit-identity suite and the
// incremental-vs-full scorer contract hold.
//
// Zero-padding invariance: callers pad the buffers they sweep (the DES's
// running set and coupling rows, the wavefront scorers' per-processor
// rows) to `padded_size(n)` with zero tails; per-task columns are never
// swept and stay unpadded.  A zero term contributes `+0.0` to a
// nonnegative partial sum (an exact no-op) and `0.0` never wins a max
// against a nonnegative baseline, so two buffers padded to different
// multiples of 4 reduce to bit-identical results.  min/max reductions are order-independent for
// finite doubles, so only the summation order needed freezing.

namespace h2p::simd {

/// Block width and accumulator count — fixed at 4 (see the header comment
/// for why this is a determinism requirement, not a tuning knob).
inline constexpr std::size_t kLanes = 4;

/// Smallest multiple of kLanes that holds `n` elements.
[[nodiscard]] constexpr std::size_t padded_size(std::size_t n) {
  return (n + kLanes - 1) & ~(kLanes - 1);
}

/// The kernels' instruction set, recorded in perfbench's host context.
/// Always "scalar": there is one build, and it is plain loops.
[[nodiscard]] constexpr const char* active_isa() { return "scalar"; }

/// THE canonical Eq. 2 reduction: dot(a, b) over `n_padded` (a multiple of
/// kLanes) elements in the documented fixed order — term q lands in
/// accumulator (q mod 4), final combine (l0 + l1) + (l2 + l3), multiplies
/// unfused.  Every contended-slowdown sum in the codebase (DES rates,
/// wavefront column rescoring, the frozen reference) computes this exact
/// sequence.
[[nodiscard]] inline double fixed_dot(const double* a, const double* b,
                                      std::size_t n_padded) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t q = 0; q < n_padded; q += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += a[q + j] * b[q + j];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/// Every victim's Eq. 2 sum in one pass: out[v] = dot(row_v, x) for all
/// `n_padded` victims, given the coupling matrix in **column-major** form
/// (column q, one double per victim, starts at cols + q * n_padded).  Per
/// victim this is the exact fixed_dot sequence — term q accumulates into
/// partial (q mod 4) in ascending-q order and the partials combine as
/// (p0 + p1) + (p2 + p3).  Victims go in blocks of four so each column is
/// read contiguously.  The DES rate kernel uses this to price all
/// processors per event in one sweep instead of one fixed_dot per running
/// task.
inline void fixed_matvec_cols(const double* cols, const double* x, double* out,
                              std::size_t n_padded) {
  for (std::size_t vb = 0; vb < n_padded; vb += kLanes) {
    double acc[kLanes][kLanes] = {};  // acc[p][j]: partial p of victim vb + j
    for (std::size_t q = 0; q < n_padded; q += kLanes) {
      for (std::size_t p = 0; p < kLanes; ++p) {
        for (std::size_t j = 0; j < kLanes; ++j) {
          acc[p][j] += cols[(q + p) * n_padded + vb + j] * x[q + p];
        }
      }
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      out[vb + j] = (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]);
    }
  }
}

/// Max over `n_padded` elements with baseline `init` (callers pass 0.0 and
/// zero-padded, nonnegative data, so padding never wins).
[[nodiscard]] inline double fixed_max(const double* x, std::size_t n_padded,
                                      double init) {
  double acc[kLanes] = {init, init, init, init};
  for (std::size_t q = 0; q < n_padded; q += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      acc[j] = acc[j] > x[q + j] ? acc[j] : x[q + j];
    }
  }
  const double a = acc[0] > acc[1] ? acc[0] : acc[1];
  const double b = acc[2] > acc[3] ? acc[2] : acc[3];
  const double m = a > b ? a : b;
  return m > init ? m : init;
}

/// Masked min-ratio: min over { num[i] / max(den[i], den_floor) : den[i] > 0 },
/// +inf when no element qualifies.  This is the DES `min dt` search —
/// elements whose rate is zero (frozen/faulted tasks, padding) count as
/// +inf.
[[nodiscard]] inline double min_positive_ratio(const double* num,
                                               const double* den,
                                               std::size_t n_padded,
                                               double den_floor) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double acc[kLanes] = {kInf, kInf, kInf, kInf};
  for (std::size_t q = 0; q < n_padded; q += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      // Divide unconditionally, then mask: the branch-free form vectorizes.
      const double d = den[q + j];
      const double ratio = num[q + j] / (d > den_floor ? d : den_floor);
      const double r = d > 0.0 ? ratio : kInf;
      acc[j] = acc[j] < r ? acc[j] : r;
    }
  }
  const double a = acc[0] < acc[1] ? acc[0] : acc[1];
  const double b = acc[2] < acc[3] ? acc[2] : acc[3];
  return a < b ? a : b;
}

/// In-place x[i] -= r[i] * dt — the DES retirement advance.  Elementwise
/// with an unfused multiply.
inline void mul_sub_inplace(double* x, const double* r, double dt,
                            std::size_t n_padded) {
  for (std::size_t i = 0; i < n_padded; ++i) x[i] = x[i] - r[i] * dt;
}

}  // namespace h2p::simd
