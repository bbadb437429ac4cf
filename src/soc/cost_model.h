#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "models/model.h"
#include "soc/soc.h"

namespace h2p {

/// Breakdown of one pipeline-slice cost (Eq. 2's first two terms; the
/// co-execution term is supplied at schedule time by the ContentionModel).
struct SliceCost {
  double total_ms = 0.0;      // exec (+ fallback) time, no boundary copies
  double compute_ms = 0.0;    // roofline compute component
  double memory_ms = 0.0;     // roofline DRAM component
  double dram_bytes = 0.0;    // bytes moved over the shared bus
  bool used_npu_fallback = false;
  std::size_t fallback_from_layer = 0;  // first layer forwarded off the NPU
};

/// Roofline latency model over a Soc.
///
/// Per-layer solo latency on processor p:
///   compute = flops / (peak * kind_efficiency)
///   memory  = dram_bytes / bandwidth, where activation traffic is scaled by
///             the layer's cache-miss fraction (1 - locality * l2_fit) and
///             weights always stream cold
///   layer_time = max(compute, memory) + dispatch overhead.
class CostModel {
 public:
  explicit CostModel(const Soc& soc) : soc_(&soc) {}

  [[nodiscard]] const Soc& soc() const { return *soc_; }

  [[nodiscard]] double layer_time_ms(const Layer& layer, const Processor& proc) const;
  [[nodiscard]] double layer_compute_ms(const Layer& layer, const Processor& proc) const;
  [[nodiscard]] double layer_memory_ms(const Layer& layer, const Processor& proc) const;
  /// Bytes the layer moves over the shared DRAM bus on this processor.
  [[nodiscard]] double layer_dram_bytes(const Layer& layer, const Processor& proc) const;

  /// Fraction of the layer's activation accesses that miss the last private
  /// cache level: tiling quality (locality) dominates, with an extra penalty
  /// when the working set exceeds L2.  Shared with the synthetic PMU.
  [[nodiscard]] static double layer_miss_fraction(const Layer& layer,
                                                  const Processor& proc);

  /// Bandwidth demand above this fraction of the shared-bus bandwidth maps
  /// to contention intensity 1.0 (the bus saturates well before its peak —
  /// row-buffer conflicts, §III).
  static constexpr double kBusContentionOnset = 0.35;

  /// ms = bytes / (gbps * 1e6), written as bytes / gbps * this factor.
  static constexpr double kMsPerByteAtGbps = 1.0 / 1.0e6;

  /// Effective bandwidth of a boundary-tensor hand-off: unified memory
  /// makes it a cache flush + remap at roughly half the bus bandwidth.
  [[nodiscard]] double transfer_bw_gbps() const {
    return std::max(soc_->bus_bw_gbps() * 0.5, 0.1);
  }

  /// Boundary-tensor hand-off cost onto `to` (Eq. 2's memory-copy term):
  /// the target's fixed driver latency plus the transfer.
  [[nodiscard]] double copy_ms(double bytes, const Processor& to) const {
    return to.copy_in_latency_ms + bytes / transfer_bw_gbps() * kMsPerByteAtGbps;
  }

  /// Whole-model solo latency on one processor (includes NPU fallback).
  [[nodiscard]] double model_solo_ms(const Model& model, std::size_t proc_idx) const;

  /// Fig-13 batching model: layers execute in hardware waves of
  /// `batch_capacity` samples, so mobile processors (capacity ~1) scale
  /// affinely in batch size while a desktop GPU stays flat until capacity.
  [[nodiscard]] double model_batch_ms(const Model& model, const Processor& proc,
                                      int batch) const;

 private:
  const Soc* soc_;
};

/// One processor's prefix sums over one model's layers: the per-layer
/// profile a CostTable answers range queries from (the processor-independent
/// activation and weight sums live in the Model).  It depends only on the
/// model and on the processor fields the roofline reads (kind, peak_gflops,
/// mem_bw_gbps, l2_bytes, launch_overhead_ms) — never on the rest of the
/// Soc — which is what lets the profile store share it across SoC views.
struct ProcProfile {
  std::vector<double> prefix_time;   // [n+1]
  std::vector<double> prefix_mem;    // memory-roofline ms
  std::vector<double> prefix_bytes;  // DRAM bytes
};

/// Per-thread memo of ProcProfile blocks: the stand-in for the paper's
/// offline per-layer profiling, done once per (model, processor) and shared
/// by every CostTable the same thread builds afterwards.  Each thread owns
/// its store (`thread_local`, no mutex), so planning threads never contend
/// on a lookup; a block two threads both need is computed once on each.
///
/// Keyed by the model's content hash and layer count plus the exact bits of
/// the five processor fields a block reads, so masked, bus-degraded and
/// thermally derated views of one chip share every block whose processor
/// they did not change.  Bounded at kCapacity blocks with LRU eviction;
/// tables hold their blocks by shared_ptr, so eviction never invalidates a
/// live table.  Every block is computed by the same arithmetic whether the
/// store is cold or warm, so a table is bit-identical either way.
namespace profile_store {

inline constexpr std::size_t kCapacity = 1024;

/// The block for (model, proc), computed with `cost` on a miss.  Sets
/// `missed` to whether it had to be computed.
std::shared_ptr<const ProcProfile> fetch(const Model& model, const Processor& proc,
                                         const CostModel& cost, bool& missed);

/// Blocks held by the calling thread's store.
[[nodiscard]] std::size_t size();

/// Drops every block the calling thread's store holds; other threads'
/// stores, and tables already built, keep theirs.
void clear();

}  // namespace profile_store

/// Precomputed O(1) range-cost oracle for one model on every processor of a
/// Soc — the `T_k^e(i, j)` of Algorithm 1, built with prefix sums exactly as
/// the paper's complexity analysis requires.
///
/// NPU ranges containing unsupported operators are costed with the paper's
/// operator-fallback rule: supported prefix on the NPU, boundary tensor
/// copied out, remainder forwarded to the fastest of CPU_Big/GPU.
class CostTable {
 public:
  CostTable(const Model& model, const CostModel& cost);

  [[nodiscard]] const Model& model() const { return *model_; }
  [[nodiscard]] std::size_t num_procs() const { return per_proc_.size(); }
  [[nodiscard]] std::size_t num_layers() const { return model_->num_layers(); }

  /// Processor k's prefix block, shared through the profile store.
  [[nodiscard]] const ProcProfile& profile(std::size_t k) const { return *per_proc_[k]; }
  /// How many of this table's blocks the profile store had to compute.
  [[nodiscard]] std::size_t profile_misses() const { return profile_misses_; }

  /// Solo execution time of layers [i, j] on processor k (Eq. 2 terms 1+2
  /// minus the inbound boundary copy, which depends on the previous stage).
  /// Equal to `slice_cost(k, i, j).total_ms`; inline below, because the
  /// planner's alignment and tail sweep read it in their inner loops.
  [[nodiscard]] double exec_ms(std::size_t k, std::size_t i, std::size_t j) const;

  /// exec_ms plus the cost of receiving the boundary tensor at layer i.
  [[nodiscard]] double stage_ms(std::size_t k, std::size_t i, std::size_t j) const;

  /// Victim-side sensitivity to bus contention in [0, 1]: a blend of the
  /// roofline memory-time share and the average L2 miss fraction.  Pure
  /// bandwidth-bound slices suffer because every byte queues on the bus;
  /// cache-hostile slices (fragmented Fire/Inception, GEMV) suffer because
  /// each miss is exposed to the contended DRAM latency — the paper's
  /// counter-intuitive SqueezeNet result (Table II).
  [[nodiscard]] double mem_sensitivity(std::size_t k, std::size_t i, std::size_t j) const;

  /// Traffic-weighted average miss fraction of the range's activations.
  [[nodiscard]] double avg_miss_fraction(std::size_t k, std::size_t i,
                                         std::size_t j) const;

  /// DRAM bytes the range moves on processor k.
  [[nodiscard]] double dram_bytes(std::size_t k, std::size_t i, std::size_t j) const;

  /// Aggressor-side *contention intensity* in [0, 1]: a blend of the solo
  /// bandwidth demand (normalized to the bus's contention-onset point) and
  /// the average miss fraction.  The miss term models row-buffer-hostile
  /// request streams: the memory controller prioritizes high row-hit
  /// traffic (§III), so fragmented access patterns degrade everyone's
  /// effective bandwidth beyond their raw byte volume.
  [[nodiscard]] double intensity(std::size_t k, std::size_t i, std::size_t j) const;

  /// Full breakdown (exposes NPU-fallback details).
  [[nodiscard]] SliceCost slice_cost(std::size_t k, std::size_t i, std::size_t j) const;

  /// The four per-slice fields the DES lowering consumes, from ONE
  /// slice_cost evaluation.  exec_ms / mem_sensitivity / intensity /
  /// dram_bytes each recompute slice_cost (and the two blends re-derive
  /// avg_miss_fraction on top), so the four-accessor sequence costs six
  /// prefix-sum walks per slice; table building is the front half of every
  /// plan-candidate score, making that the dominant lowering cost.  This
  /// fused accessor applies the identical arithmetic to one shared
  /// SliceCost, so every field is bit-identical to its standalone
  /// counterpart.
  struct SliceSimCosts {
    double exec_ms = 0.0;
    double sensitivity = 0.0;
    double intensity = 0.0;
    double dram_bytes = 0.0;
  };
  [[nodiscard]] SliceSimCosts slice_sim_costs(std::size_t k, std::size_t i,
                                              std::size_t j) const;

  /// Copy cost of handing the boundary tensor at layer i to processor k:
  /// `CostModel::copy_ms(model.boundary_bytes(i), processor k)`, from the
  /// transfer bandwidth and copy latencies cached at construction.
  [[nodiscard]] double boundary_copy_ms(std::size_t k, std::size_t i) const;

 private:
  [[nodiscard]] double range(const std::vector<double>& prefix, std::size_t i,
                             std::size_t j) const;

  const Model* model_;
  const CostModel* cost_;
  std::vector<std::shared_ptr<const ProcProfile>> per_proc_;
  std::size_t profile_misses_ = 0;
  std::vector<std::size_t> next_unsupported_;  // [n+1], next NPU-unsupported >= i
  std::vector<double> copy_in_latency_ms_;     // [P] Processor::copy_in_latency_ms
  double transfer_bw_gbps_ = 0.0;              // CostModel::transfer_bw_gbps()
  int npu_idx_ = -1;
  int fallback_idx_ = -1;  // fastest of CPU_Big / GPU
};

inline double CostTable::exec_ms(std::size_t k, std::size_t i, std::size_t j) const {
  if (j < i || j >= num_layers()) return 0.0;
  // slice_cost's first branch: off the NPU, or on it with no unsupported
  // operator in range, the time is one prefix difference.  Only NPU
  // fallback ranges take the full breakdown.
  if (static_cast<int>(k) != npu_idx_ || next_unsupported_[i] > j) {
    const std::vector<double>& prefix = per_proc_[k]->prefix_time;
    return prefix[j + 1] - prefix[i];
  }
  return slice_cost(k, i, j).total_ms;
}

inline double CostTable::boundary_copy_ms(std::size_t k, std::size_t i) const {
  // CostModel::copy_ms's operations, in its order.
  return copy_in_latency_ms_[k] +
         model_->boundary_bytes(i) / transfer_bw_gbps_ * CostModel::kMsPerByteAtGbps;
}

}  // namespace h2p
