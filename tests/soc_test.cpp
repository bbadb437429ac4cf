#include <gtest/gtest.h>

#include "soc/soc.h"
#include "test_helpers.h"

namespace h2p {
namespace {

class SocFactories : public ::testing::TestWithParam<Soc> {};

TEST_P(SocFactories, HasFourProcessorsInPowerOrder) {
  const Soc& soc = GetParam();
  ASSERT_EQ(soc.num_processors(), 4u);
  // §IV: processors ordered by descending processing power.
  EXPECT_EQ(soc.processor(0).kind, ProcKind::kNpu);
  EXPECT_EQ(soc.processor(1).kind, ProcKind::kCpuBig);
  EXPECT_EQ(soc.processor(2).kind, ProcKind::kGpu);
  EXPECT_EQ(soc.processor(3).kind, ProcKind::kCpuSmall);
  EXPECT_GT(soc.processor(0).peak_gflops, soc.processor(1).peak_gflops);
  EXPECT_GT(soc.processor(1).peak_gflops, soc.processor(3).peak_gflops);
}

TEST_P(SocFactories, MemStatesAscending) {
  const Soc& soc = GetParam();
  ASSERT_FALSE(soc.mem_states().empty());
  for (std::size_t i = 1; i < soc.mem_states().size(); ++i) {
    EXPECT_GT(soc.mem_states()[i].mhz, soc.mem_states()[i - 1].mhz);
    EXPECT_GT(soc.mem_states()[i].bw_gbps, soc.mem_states()[i - 1].bw_gbps);
  }
}

TEST_P(SocFactories, FindLocatesEveryKind) {
  const Soc& soc = GetParam();
  for (ProcKind k : {ProcKind::kNpu, ProcKind::kCpuBig, ProcKind::kGpu,
                     ProcKind::kCpuSmall}) {
    const int idx = soc.find(k);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(soc.processor(static_cast<std::size_t>(idx)).kind, k);
    EXPECT_TRUE(soc.has(k));
  }
  EXPECT_EQ(soc.find(ProcKind::kDesktopGpu), -1);
  EXPECT_FALSE(soc.has(ProcKind::kDesktopGpu));
}

TEST_P(SocFactories, MemoryBudgetsSane) {
  const Soc& soc = GetParam();
  EXPECT_GT(soc.mem_capacity_bytes(), soc.available_bytes());
  EXPECT_GT(soc.available_bytes(), 1e9);  // at least ~1 GiB free
  EXPECT_GT(soc.bus_bw_gbps(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ThreeDevices, SocFactories,
                         ::testing::Values(Soc::kirin990(), Soc::snapdragon778g(),
                                           Soc::snapdragon870()),
                         [](const auto& info) { return info.param.name(); });

TEST(Soc, CouplingObservation1) {
  // CPU<->GPU couple much more strongly than anything involving the NPU.
  const double cpu_gpu = Soc::coupling(ProcKind::kCpuBig, ProcKind::kGpu);
  const double cpu_npu = Soc::coupling(ProcKind::kCpuBig, ProcKind::kNpu);
  const double gpu_npu = Soc::coupling(ProcKind::kGpu, ProcKind::kNpu);
  EXPECT_GT(cpu_gpu, 4.0 * cpu_npu);
  EXPECT_GT(cpu_gpu, 4.0 * gpu_npu);
}

TEST(Soc, CouplingIsSymmetricAndZeroOnDiagonal) {
  const Soc soc = Soc::kirin990();
  for (std::size_t p = 0; p < soc.num_processors(); ++p) {
    EXPECT_DOUBLE_EQ(soc.coupling(p, p), 0.0);
    for (std::size_t q = 0; q < soc.num_processors(); ++q) {
      EXPECT_DOUBLE_EQ(soc.coupling(p, q), soc.coupling(q, p));
    }
  }
}

TEST(Soc, KirinNpuIsStrongest) {
  // The Kirin 990's DaVinci NPU dwarfs the Snapdragons' DSPs, which is why
  // the paper's best speedups land on the Kirin.
  const Soc kirin = Soc::kirin990();
  const Soc sd778 = Soc::snapdragon778g();
  const Soc sd870 = Soc::snapdragon870();
  const auto npu_gflops = [](const Soc& s) {
    return s.processor(static_cast<std::size_t>(s.find(ProcKind::kNpu))).peak_gflops;
  };
  EXPECT_GT(npu_gflops(kirin), npu_gflops(sd870));
  EXPECT_GT(npu_gflops(sd870), npu_gflops(sd778));
}

TEST(Soc, DesktopCudaComparator) {
  const Processor cuda = Soc::desktop_cuda_gpu();
  EXPECT_EQ(cuda.kind, ProcKind::kDesktopGpu);
  EXPECT_GT(cuda.batch_capacity, 8);  // wide batch waves (Fig 13)
  EXPECT_GT(cuda.peak_gflops, 1000.0);
}

}  // namespace
}  // namespace h2p
