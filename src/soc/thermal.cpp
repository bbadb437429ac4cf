#include "soc/thermal.h"

#include <algorithm>
#include <cmath>

namespace h2p {

ThermalModel::ThermalModel(const Processor& proc, double ambient_c)
    : ambient_c_(ambient_c), temp_c_(ambient_c), power_watts_(proc.tdp_watts) {
  switch (proc.kind) {
    case ProcKind::kCpuBig:
      resistance_c_per_w_ = 9.0;   // dense cluster, poor spreading
      capacitance_j_per_c_ = 4.0;
      throttle_start_c_ = 60.0;
      critical_c_ = 85.0;
      min_factor_ = 0.55;
      break;
    case ProcKind::kCpuSmall:
      resistance_c_per_w_ = 10.0;
      capacitance_j_per_c_ = 3.0;
      throttle_start_c_ = 65.0;
      critical_c_ = 85.0;
      min_factor_ = 0.70;
      break;
    case ProcKind::kGpu:
      resistance_c_per_w_ = 5.5;   // larger area, better spreading
      capacitance_j_per_c_ = 6.0;
      throttle_start_c_ = 70.0;
      critical_c_ = 90.0;
      min_factor_ = 0.75;
      break;
    case ProcKind::kNpu:
    case ProcKind::kDesktopGpu:
      resistance_c_per_w_ = 5.0;
      capacitance_j_per_c_ = 6.0;
      throttle_start_c_ = 75.0;
      critical_c_ = 95.0;
      min_factor_ = 0.85;
      break;
  }
}

double ThermalModel::step(double dt_s, double utilization) {
  utilization = std::clamp(utilization, 0.0, 1.0);
  // Exact solution of the linear RC node over [0, dt]: the temperature
  // relaxes toward the utilization's steady state with time constant
  // tau = R*C.  Unconditionally stable for ANY dt — the closed serving
  // loop integrates release deltas scaled by thousands (accelerated
  // aging), where explicit Euler overshoots past critical and then slams
  // back below ambient, flapping the derived bucket every window.
  const double t_ss =
      ambient_c_ + power_watts_ * utilization * resistance_c_per_w_;
  const double tau_s = resistance_c_per_w_ * capacitance_j_per_c_;
  const double dt = dt_s < 0.0 ? 0.0 : dt_s;
  temp_c_ += (t_ss - temp_c_) * -std::expm1(-dt / tau_s);
  temp_c_ = std::max(temp_c_, ambient_c_);
  return temp_c_;
}

double ThermalModel::throttle_factor() const {
  if (temp_c_ <= throttle_start_c_) return 1.0;
  if (temp_c_ >= critical_c_) return min_factor_;
  const double t = (temp_c_ - throttle_start_c_) / (critical_c_ - throttle_start_c_);
  return 1.0 - t * (1.0 - min_factor_);
}

double ThermalModel::steady_state_c(double utilization) const {
  utilization = std::clamp(utilization, 0.0, 1.0);
  return ambient_c_ + power_watts_ * utilization * resistance_c_per_w_;
}

double ThermalModel::steady_state_throttle(double utilization) const {
  const double t_ss = steady_state_c(utilization);
  if (t_ss <= throttle_start_c_) return 1.0;
  if (t_ss >= critical_c_) return min_factor_;
  const double t = (t_ss - throttle_start_c_) / (critical_c_ - throttle_start_c_);
  return 1.0 - t * (1.0 - min_factor_);
}

Soc thermally_derated(const Soc& soc, double utilization) {
  std::vector<Processor> procs;
  procs.reserve(soc.num_processors());
  for (const Processor& p : soc.processors()) {
    Processor derated = p;
    derated.peak_gflops *= ThermalModel(p).steady_state_throttle(utilization);
    procs.push_back(std::move(derated));
  }
  return Soc(soc.name() + "@thermal-limit", std::move(procs), soc.bus_bw_gbps(),
             soc.mem_capacity_bytes(), soc.available_bytes(), soc.mem_states());
}

std::size_t coarse_thermal_bucket(double worst_throttle_factor) {
  const double derate = 1.0 - std::clamp(worst_throttle_factor, 0.0, 1.0);
  if (derate <= 0.0) return 0;
  // ceil(derate / 0.1), robust to float edges: derate 0.1 -> bucket 1.
  return static_cast<std::size_t>((derate - 1e-12) / 0.1) + 1;
}

Soc thermally_derated_bucket(const Soc& soc, std::size_t bucket) {
  if (bucket == 0) return soc;
  const double worst = std::max(1.0 - 0.1 * static_cast<double>(bucket), 0.0);
  std::vector<Processor> procs;
  procs.reserve(soc.num_processors());
  for (const Processor& p : soc.processors()) {
    Processor derated = p;
    derated.peak_gflops *= std::max(worst, ThermalModel(p).min_factor());
    procs.push_back(std::move(derated));
  }
  return Soc(soc.name() + "@thermal-b" + std::to_string(bucket),
             std::move(procs), soc.bus_bw_gbps(), soc.mem_capacity_bytes(),
             soc.available_bytes(), soc.mem_states());
}

std::size_t thermal_bucket_with_hysteresis(std::size_t current,
                                           double worst_throttle_factor,
                                           double margin) {
  const double derate = 1.0 - std::clamp(worst_throttle_factor, 0.0, 1.0);
  // Fully cooled is always allowed home — without this, the +margin guard
  // below would pin the bucket at 1 forever once it had ever throttled.
  if (derate <= 0.0) return 0;
  // Raise only when the derate clears the next boundary by `margin`...
  const std::size_t up = coarse_thermal_bucket(worst_throttle_factor + margin);
  if (up > current) return up;
  // ...and lower only when it clears the boundary below by `margin`.
  const std::size_t down =
      coarse_thermal_bucket(worst_throttle_factor - margin);
  if (down < current) return down;
  return current;
}

}  // namespace h2p
