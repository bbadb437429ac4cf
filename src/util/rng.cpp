#include "util/rng.h"

namespace h2p {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0, so draw a standard normal
  // and scale it here.  The arithmetic is the distribution's own
  // (z * stddev + mean), so every stddev > 0 draw is unchanged, and
  // stddev 0 returns `mean` while advancing the engine like stddev 1.
  std::normal_distribution<double> standard(0.0, 1.0);
  const double z = standard(engine_);
  return z * stddev + mean;
}

bool Rng::chance(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) return 0;
  std::uniform_int_distribution<std::size_t> dist(0, n - 1);
  return dist(engine_);
}

}  // namespace h2p
