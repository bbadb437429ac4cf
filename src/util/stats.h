#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace h2p {

/// Summary statistics over a sample of scalar observations.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);
double minimum(std::span<const double> xs);
double maximum(std::span<const double> xs);

/// Percentile with linear interpolation; q is clamped to [0, 1].  Throws
/// std::invalid_argument for a NaN q, which no clamp can place.
double percentile(std::span<const double> xs, double q);

Summary summarize(std::span<const double> xs);

/// Ordinary least-squares fit y = a + b*x; returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Geometric mean of strictly positive values.
double geomean(std::span<const double> xs);

}  // namespace h2p
