#include "soc/soc.h"

#include <cstdio>
#include <utility>

namespace h2p {

namespace {

std::string make_fingerprint(const std::string& name,
                             const std::vector<Processor>& processors,
                             double bus_bw_gbps, double mem_capacity_bytes,
                             double available_bytes) {
  std::string fp = name;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "|bus=%.17g|cap=%.17g|avail=%.17g", bus_bw_gbps,
                mem_capacity_bytes, available_bytes);
  fp += buf;
  for (const Processor& p : processors) {
    fp += '|';
    fp += p.name;
    std::snprintf(buf, sizeof(buf), ":%d:%.17g:%.17g:%.17g:%.17g:%d:%.17g:%.17g",
                  static_cast<int>(p.kind), p.peak_gflops, p.mem_bw_gbps,
                  p.l2_bytes, p.launch_overhead_ms, p.batch_capacity,
                  p.copy_in_latency_ms, p.tdp_watts);
    fp += buf;
  }
  return fp;
}

}  // namespace

Soc::Soc(std::string name, std::vector<Processor> processors, double bus_bw_gbps,
         double mem_capacity_bytes, double available_bytes,
         std::vector<MemFreqState> mem_states)
    : name_(std::move(name)),
      processors_(std::move(processors)),
      bus_bw_gbps_(bus_bw_gbps),
      mem_capacity_bytes_(mem_capacity_bytes),
      available_bytes_(available_bytes),
      mem_states_(std::move(mem_states)),
      fingerprint_(make_fingerprint(name_, processors_, bus_bw_gbps_,
                                    mem_capacity_bytes_, available_bytes_)) {}

int Soc::find(ProcKind kind) const {
  for (std::size_t k = 0; k < processors_.size(); ++k) {
    if (processors_[k].kind == kind) return static_cast<int>(k);
  }
  return -1;
}

double Soc::coupling(std::size_t p, std::size_t q) const {
  if (p == q) return 0.0;
  return coupling(processors_[p].kind, processors_[q].kind);
}

double Soc::coupling(ProcKind p, ProcKind q) {
  if (p == q) return 0.0;
  auto is_npu = [](ProcKind k) { return k == ProcKind::kNpu; };
  // Observation 1 / §III: the NPU's dedicated memory path nearly decouples
  // it from the shared bus; the CPU clusters and GPU contend hard.
  if (is_npu(p) || is_npu(q)) return 0.12;
  auto pair = [&](ProcKind a, ProcKind b) {
    return (p == a && q == b) || (p == b && q == a);
  };
  if (pair(ProcKind::kCpuBig, ProcKind::kGpu)) return 1.10;
  if (pair(ProcKind::kCpuBig, ProcKind::kCpuSmall)) return 0.50;
  if (pair(ProcKind::kGpu, ProcKind::kCpuSmall)) return 0.45;
  return 0.45;
}

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

std::vector<MemFreqState> lpddr4x_states() {
  return {{547.0, 4.4}, {1333.0, 10.6}, {1866.0, 14.9}, {2133.0, 17.1}};
}

Processor cpu_big(const std::string& name, double gflops) {
  Processor p;
  p.name = name;
  p.kind = ProcKind::kCpuBig;
  p.peak_gflops = gflops;
  p.mem_bw_gbps = 12.0;
  p.l2_bytes = 2.0 * 1024 * 1024;
  p.launch_overhead_ms = 0.02;
  p.batch_capacity = 1;
  p.copy_in_latency_ms = 0.05;
  p.tdp_watts = 5.0;
  return p;
}

Processor cpu_small(const std::string& name, double gflops) {
  Processor p;
  p.name = name;
  p.kind = ProcKind::kCpuSmall;
  p.peak_gflops = gflops;
  p.mem_bw_gbps = 6.0;
  p.l2_bytes = 512.0 * 1024;
  p.launch_overhead_ms = 0.03;
  p.batch_capacity = 1;
  p.copy_in_latency_ms = 0.05;
  p.tdp_watts = 1.5;
  return p;
}

Processor mobile_gpu(const std::string& name, double gflops) {
  Processor p;
  p.name = name;
  p.kind = ProcKind::kGpu;
  p.peak_gflops = gflops;
  p.mem_bw_gbps = 13.0;
  p.l2_bytes = 2.0 * 1024 * 1024;
  p.launch_overhead_ms = 0.12;  // OpenCL kernel dispatch
  p.batch_capacity = 2;
  p.copy_in_latency_ms = 0.30;  // buffer map/unmap
  p.tdp_watts = 4.0;
  return p;
}

Processor mobile_npu(const std::string& name, double gflops, double bw) {
  Processor p;
  p.name = name;
  p.kind = ProcKind::kNpu;
  p.peak_gflops = gflops;
  p.mem_bw_gbps = bw;
  p.l2_bytes = 8.0 * 1024 * 1024;  // on-chip SRAM
  p.launch_overhead_ms = 0.10;
  p.batch_capacity = 4;
  p.copy_in_latency_ms = 0.50;  // driver hand-off
  p.tdp_watts = 2.0;
  return p;
}

}  // namespace

Soc Soc::kirin990() {
  // 2xA76@2.86 + 2xA76@2.09 big cluster, 4xA55@1.86 little cluster,
  // Mali-G76 MP16, DaVinci NPU.
  std::vector<Processor> procs = {
      mobile_npu("DaVinci-NPU", 2000.0, 25.0),
      cpu_big("A76x4", 110.0),
      mobile_gpu("Mali-G76", 140.0),
      cpu_small("A55x4", 45.0),
  };
  return Soc("Kirin990", std::move(procs), /*bus_bw_gbps=*/14.0,
             /*mem_capacity_bytes=*/8.0 * kGiB, /*available_bytes=*/2.5 * kGiB,
             lpddr4x_states());
}

Soc Soc::snapdragon778g() {
  // 1xA78@2.4 + 3xA78@2.2, 4xA55@1.9, Adreno 642L, Hexagon 770 DSP/NPU.
  std::vector<Processor> procs = {
      mobile_npu("Hexagon-770", 700.0, 16.0),
      cpu_big("A78x4", 105.0),
      mobile_gpu("Adreno-642L", 95.0),
      cpu_small("A55x4", 46.0),
  };
  return Soc("Snapdragon778G", std::move(procs), /*bus_bw_gbps=*/12.0,
             /*mem_capacity_bytes=*/8.0 * kGiB, /*available_bytes=*/2.8 * kGiB,
             lpddr4x_states());
}

Soc Soc::snapdragon870() {
  // 1xA77@3.2 + 3xA77@2.42, 4xA55@1.8, Adreno 650, Hexagon 698.
  std::vector<Processor> procs = {
      mobile_npu("Hexagon-698", 900.0, 18.0),
      cpu_big("A77x4", 135.0),
      mobile_gpu("Adreno-650", 130.0),
      cpu_small("A55x4", 43.0),
  };
  return Soc("Snapdragon870", std::move(procs), /*bus_bw_gbps=*/13.0,
             /*mem_capacity_bytes=*/8.0 * kGiB, /*available_bytes=*/3.0 * kGiB,
             lpddr4x_states());
}

Processor Soc::desktop_cuda_gpu() {
  Processor p;
  p.name = "RTX-CUDA";
  p.kind = ProcKind::kDesktopGpu;
  p.peak_gflops = 10000.0;
  p.mem_bw_gbps = 600.0;
  p.l2_bytes = 40.0 * 1024 * 1024;
  p.launch_overhead_ms = 0.01;
  p.batch_capacity = 32;  // large on-chip memory: wide batch waves
  p.copy_in_latency_ms = 0.05;
  p.tdp_watts = 250.0;
  return p;
}

}  // namespace h2p
