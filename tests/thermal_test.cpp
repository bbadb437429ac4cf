#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "soc/cost_model.h"
#include "soc/soc.h"
#include "soc/thermal.h"

namespace h2p {
namespace {

Processor proc_of(ProcKind k) {
  const Soc soc = Soc::kirin990();
  return soc.processor(static_cast<std::size_t>(soc.find(k)));
}

TEST(Thermal, StartsAtAmbient) {
  ThermalModel t(proc_of(ProcKind::kCpuBig), 25.0);
  EXPECT_DOUBLE_EQ(t.temperature_c(), 25.0);
  EXPECT_DOUBLE_EQ(t.throttle_factor(), 1.0);
}

TEST(Thermal, HeatsUnderLoadCoolsWhenIdle) {
  ThermalModel t(proc_of(ProcKind::kCpuBig));
  for (int i = 0; i < 100; ++i) t.step(1.0, 1.0);
  const double hot = t.temperature_c();
  EXPECT_GT(hot, 40.0);
  for (int i = 0; i < 500; ++i) t.step(1.0, 0.0);
  EXPECT_LT(t.temperature_c(), hot);
}

TEST(Thermal, StepConvergesToSteadyState) {
  ThermalModel t(proc_of(ProcKind::kCpuBig));
  const double target = t.steady_state_c(0.8);
  for (int i = 0; i < 5000; ++i) t.step(0.5, 0.8);
  EXPECT_NEAR(t.temperature_c(), target, 0.5);
}

TEST(Thermal, CpuThrottlesAboveSixtyAtFullLoad) {
  // Fig 11: sustained CPU load exceeds 60 C and derates.
  ThermalModel t(proc_of(ProcKind::kCpuBig));
  EXPECT_GT(t.steady_state_c(1.0), 60.0);
  EXPECT_LT(t.steady_state_throttle(1.0), 1.0);
}

TEST(Thermal, GpuAndNpuStayCool) {
  // Fig 11: GPU/NPU remain within ~50 C limits at full utilization.
  ThermalModel gpu(proc_of(ProcKind::kGpu));
  ThermalModel npu(proc_of(ProcKind::kNpu));
  EXPECT_LT(gpu.steady_state_c(1.0), 50.0);
  EXPECT_LT(npu.steady_state_c(1.0), 50.0);
  EXPECT_DOUBLE_EQ(gpu.steady_state_throttle(1.0), 1.0);
  EXPECT_DOUBLE_EQ(npu.steady_state_throttle(1.0), 1.0);
}

TEST(Thermal, ThrottleFactorBounded) {
  ThermalModel t(proc_of(ProcKind::kCpuBig));
  for (int i = 0; i < 10000; ++i) t.step(1.0, 1.0);
  EXPECT_GE(t.throttle_factor(), 0.55);
  EXPECT_LE(t.throttle_factor(), 1.0);
}

TEST(Thermal, NeverBelowAmbient) {
  ThermalModel t(proc_of(ProcKind::kCpuSmall), 25.0);
  for (int i = 0; i < 100; ++i) t.step(10.0, 0.0);
  EXPECT_GE(t.temperature_c(), 25.0);
}

TEST(Thermal, UtilizationClamped) {
  ThermalModel t(proc_of(ProcKind::kCpuBig));
  EXPECT_DOUBLE_EQ(t.steady_state_c(2.0), t.steady_state_c(1.0));
  EXPECT_DOUBLE_EQ(t.steady_state_c(-1.0), t.steady_state_c(0.0));
}

TEST(Thermal, ThrottleClampsAtCriticalTemperature) {
  // Past critical_c the governor sits at min_factor and never goes lower,
  // no matter how absurdly hot the die is driven (CpuBig: 85 C / 0.55).
  ThermalModel t(proc_of(ProcKind::kCpuBig), 85.0);
  EXPECT_DOUBLE_EQ(t.throttle_factor(), 0.55);
  ThermalModel hotter(proc_of(ProcKind::kCpuBig), 300.0);
  EXPECT_DOUBLE_EQ(hotter.throttle_factor(), 0.55);
  // The same clamp holds for the closed-form steady-state path.
  EXPECT_GE(hotter.steady_state_throttle(1.0), 0.55);
}

TEST(Thermal, SteadyStateMonotoneInUtilization) {
  for (ProcKind k : {ProcKind::kCpuBig, ProcKind::kCpuSmall, ProcKind::kGpu,
                     ProcKind::kNpu}) {
    ThermalModel t(proc_of(k));
    double prev_temp = -1.0;
    double prev_throttle = 2.0;
    for (double u = 0.0; u <= 1.0 + 1e-9; u += 0.05) {
      const double temp = t.steady_state_c(u);
      const double throttle = t.steady_state_throttle(u);
      EXPECT_GE(temp, prev_temp) << "kind " << static_cast<int>(k) << " u " << u;
      EXPECT_LE(throttle, prev_throttle)
          << "kind " << static_cast<int>(k) << " u " << u;
      prev_temp = temp;
      prev_throttle = throttle;
    }
  }
}

TEST(Thermal, DeratedSocNeverGainsThroughput) {
  for (const Soc& soc :
       {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    for (double u : {0.0, 0.5, 1.0}) {
      const Soc derated = thermally_derated(soc, u);
      ASSERT_EQ(derated.num_processors(), soc.num_processors());
      for (std::size_t p = 0; p < soc.num_processors(); ++p) {
        EXPECT_LE(derated.processor(p).peak_gflops,
                  soc.processor(p).peak_gflops + 1e-12)
            << soc.name() << " proc " << p << " u " << u;
        EXPECT_GT(derated.processor(p).peak_gflops, 0.0);
      }
    }
    // Idle is exactly nominal: no spurious derating at zero load.
    const Soc idle = thermally_derated(soc, 0.0);
    for (std::size_t p = 0; p < soc.num_processors(); ++p) {
      EXPECT_DOUBLE_EQ(idle.processor(p).peak_gflops,
                       soc.processor(p).peak_gflops);
    }
  }
}

TEST(Thermal, CoarseBucketEdges) {
  EXPECT_EQ(coarse_thermal_bucket(1.0), 0u);
  EXPECT_EQ(coarse_thermal_bucket(0.95), 1u);
  EXPECT_EQ(coarse_thermal_bucket(0.9), 1u);   // derate 0.1 rounds into 1
  EXPECT_EQ(coarse_thermal_bucket(0.89), 2u);
  EXPECT_EQ(coarse_thermal_bucket(0.55), 5u);
  EXPECT_EQ(coarse_thermal_bucket(0.0), 10u);
  // Out-of-range inputs clamp instead of wrapping.
  EXPECT_EQ(coarse_thermal_bucket(1.5), 0u);
  EXPECT_EQ(coarse_thermal_bucket(-0.5), 10u);
}

TEST(Thermal, CoarseBucketOfSocTracksWorstProcessor) {
  const Soc soc = Soc::kirin990();
  // The SoC's bucket at a sustained utilization is the bucket of its worst
  // (lowest) per-processor steady-state throttle factor.
  const auto worst_at = [&soc](double utilization) {
    double worst = 1.0;
    for (const Processor& p : soc.processors()) {
      worst = std::min(worst, ThermalModel(p).steady_state_throttle(utilization));
    }
    return worst;
  };
  // Idle: nothing throttles, bucket 0.
  EXPECT_EQ(coarse_thermal_bucket(worst_at(0.0)), 0u);
  // Sustained full load: the big CPU cluster throttles (Fig 11), so the
  // SoC-level bucket is nonzero.
  ASSERT_LT(worst_at(1.0), 1.0);
  EXPECT_GT(coarse_thermal_bucket(worst_at(1.0)), 0u);
}

TEST(ThermalDerate, OnlyHotProcessorsLosePeak) {
  const Soc cold = Soc::kirin990();
  const Soc hot = thermally_derated(cold);
  ASSERT_EQ(hot.num_processors(), cold.num_processors());
  const auto cpu_b = static_cast<std::size_t>(cold.find(ProcKind::kCpuBig));
  const auto npu = static_cast<std::size_t>(cold.find(ProcKind::kNpu));
  // The big cluster throttles at sustained load; the NPU does not (Fig 11).
  EXPECT_LT(hot.processor(cpu_b).peak_gflops, cold.processor(cpu_b).peak_gflops);
  EXPECT_DOUBLE_EQ(hot.processor(npu).peak_gflops, cold.processor(npu).peak_gflops);
  EXPECT_NE(hot.name(), cold.name());
}

TEST(ThermalDerate, IdleUtilizationIsNoOp) {
  const Soc cold = Soc::kirin990();
  const Soc idle = thermally_derated(cold, 0.0);
  for (std::size_t k = 0; k < cold.num_processors(); ++k) {
    EXPECT_DOUBLE_EQ(idle.processor(k).peak_gflops, cold.processor(k).peak_gflops);
  }
}

TEST(ThermalDerate, SustainedLatencyWorseOnCpu) {
  const Soc cold = Soc::kirin990();
  const Soc hot = thermally_derated(cold);
  const CostModel cost_cold(cold), cost_hot(hot);
  const Model& m = zoo_model(ModelId::kResNet50);
  const auto cpu_b = static_cast<std::size_t>(cold.find(ProcKind::kCpuBig));
  EXPECT_GT(cost_hot.model_solo_ms(m, cpu_b), cost_cold.model_solo_ms(m, cpu_b));
}

}  // namespace
}  // namespace h2p
