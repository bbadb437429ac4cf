#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "soc/processor.h"

namespace h2p {

/// Memory-controller DVFS operating point (Fig 9's frequency trace).
struct MemFreqState {
  double mhz = 0.0;
  double bw_gbps = 0.0;  // bandwidth delivered at this state
};

/// A system-on-chip: processors in descending order of processing power
/// (NPU >> CPU_Big >= GPU >> CPU_Small, §IV), a shared memory bus, and a
/// pairwise coupling matrix describing how strongly co-execution on a
/// processor pair contends on that bus (Observation 1: CPU<->GPU couple
/// strongly; anything involving the NPU barely couples thanks to its
/// dedicated memory path).
class Soc {
 public:
  Soc(std::string name, std::vector<Processor> processors, double bus_bw_gbps,
      double mem_capacity_bytes, double available_bytes,
      std::vector<MemFreqState> mem_states);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_processors() const { return processors_.size(); }
  [[nodiscard]] const Processor& processor(std::size_t k) const { return processors_[k]; }
  [[nodiscard]] const std::vector<Processor>& processors() const { return processors_; }

  /// Index of the first processor of the given kind; -1 when absent.
  [[nodiscard]] int find(ProcKind kind) const;
  [[nodiscard]] bool has(ProcKind kind) const { return find(kind) >= 0; }

  [[nodiscard]] double bus_bw_gbps() const { return bus_bw_gbps_; }
  [[nodiscard]] double mem_capacity_bytes() const { return mem_capacity_bytes_; }
  /// Memory free before any model is loaded (OS + apps already resident).
  [[nodiscard]] double available_bytes() const { return available_bytes_; }
  [[nodiscard]] const std::vector<MemFreqState>& mem_states() const { return mem_states_; }

  /// Stable identity string over everything that affects planning: name,
  /// per-processor roofline parameters, bus bandwidth and memory sizes,
  /// every double printed exactly (`%.17g` round-trips).  Two Socs with
  /// equal fingerprints produce identical cost tables, so a cached
  /// CompiledPlan keyed on it is safe to reuse.  Built once at
  /// construction: a Soc is immutable afterwards.
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

  /// Contention coupling gamma(p, q): how many percent of slowdown a unit of
  /// aggressor contention-intensity on q inflicts on a fully memory-bound
  /// victim on p.  Symmetric.
  [[nodiscard]] double coupling(std::size_t p, std::size_t q) const;
  [[nodiscard]] static double coupling(ProcKind p, ProcKind q);

  // ---- factories calibrated to the paper's three test devices ------------
  static Soc kirin990();
  static Soc snapdragon778g();
  static Soc snapdragon870();

  /// Fig-13 comparator: a desktop CUDA GPU (not a mobile SoC).
  static Processor desktop_cuda_gpu();

 private:
  std::string name_;
  std::vector<Processor> processors_;
  double bus_bw_gbps_;
  double mem_capacity_bytes_;
  double available_bytes_;
  std::vector<MemFreqState> mem_states_;
  std::string fingerprint_;
};

}  // namespace h2p
