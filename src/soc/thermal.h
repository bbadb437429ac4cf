#pragma once

#include <cstddef>

#include "soc/processor.h"
#include "soc/soc.h"

namespace h2p {

/// First-order lumped thermal model (Appendix B): die temperature follows
///   C dT/dt = P_in(utilization) - (T - T_ambient) / R
/// and the DVFS governor derates frequency linearly between
/// `throttle_start_c` and `critical_c`.
///
/// CPU clusters have high power density (throttle above ~60 C under
/// sustained load); the GPU/NPU run at lower frequencies and stay below
/// ~50 C, matching the paper's Fig. 11 observation.
class ThermalModel {
 public:
  explicit ThermalModel(const Processor& proc, double ambient_c = 25.0);

  /// Advance `dt_s` seconds at the given utilization in [0, 1]; returns the
  /// new temperature.
  double step(double dt_s, double utilization);

  [[nodiscard]] double temperature_c() const { return temp_c_; }

  /// Current frequency derating factor in (0, 1]; multiply throughput by it.
  [[nodiscard]] double throttle_factor() const;

  /// Closed-form equilibrium temperature at constant utilization.
  [[nodiscard]] double steady_state_c(double utilization) const;

  /// Throttle factor at the steady state (what "running at the thermal
  /// limit", the paper's measurement protocol, converges to).
  [[nodiscard]] double steady_state_throttle(double utilization) const;

  /// Floor of the derating curve (factor at/above critical temperature);
  /// the deepest throttle this processor kind ever reaches.  Weather
  /// expansion scales thermal-storm slowdowns toward it.
  [[nodiscard]] double min_factor() const { return min_factor_; }

 private:
  double ambient_c_;
  double temp_c_;
  double power_watts_;        // at 100% utilization
  double resistance_c_per_w_; // junction-to-ambient
  double capacitance_j_per_c_;
  double throttle_start_c_;
  double critical_c_;
  double min_factor_;
};

/// The paper's measurement protocol: "we conduct all the experiments at the
/// thermal limits when frequency scaling and temperature have reached a
/// steady state."  This returns a Soc whose processors' peak throughput is
/// derated by each one's steady-state throttle factor at the given
/// utilization — plan/simulate against it to model sustained operation.
Soc thermally_derated(const Soc& soc, double utilization = 1.0);

/// Coarse thermal-state bucket for plan-cache keying (exec::PlanCache
/// re-keys on it): 0 = nominal (no processor throttling), then one bucket
/// per 10% of worst-case derating — bucket = ceil((1 - min throttle) / 0.1).
/// Coarse on purpose: temperature drifts continuously, and keying the cache
/// on a fine-grained reading would make every window a cold miss.
std::size_t coarse_thermal_bucket(double worst_throttle_factor);

/// The SoC a given coarse bucket stands for: every processor's peak
/// throughput derated by the bucket's worst-case factor (1 - 0.1 * bucket),
/// floored at that processor kind's own derating floor (the NPU never
/// throttles as deep as the big cluster).  A *pure function* of
/// (soc, bucket) — the same bucket always yields the same derated SoC, so
/// `exec::PlanCache` keys stay stable and a cached plan is exactly the plan
/// a cold planner would produce for that bucket.  Bucket 0 returns the SoC
/// unchanged (same name, same fingerprint); other buckets get a
/// "@thermal-b<bucket>" name suffix so their cost-model views fingerprint
/// apart.
Soc thermally_derated_bucket(const Soc& soc, std::size_t bucket);

/// Coarse bucket with hysteresis, for the closed thermal loop: maps the
/// live worst-case throttle factor to a bucket without flapping the plan
/// cache when the factor oscillates around a bucket boundary.  Raises only
/// when the derate clears the boundary by `margin`; lowers only when it
/// clears the boundary below by `margin`; a fully cooled SoC (factor >= 1)
/// always returns home to bucket 0.
std::size_t thermal_bucket_with_hysteresis(std::size_t current,
                                           double worst_throttle_factor,
                                           double margin = 0.03);

}  // namespace h2p
