#include "soc/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "obs/metrics.h"
#include "util/lru_map.h"

namespace h2p {

double CostModel::layer_miss_fraction(const Layer& layer, const Processor& proc) {
  // A well-tiled kernel (locality ~1) keeps misses low even when the raw
  // working set exceeds L2 — cache blocking streams tiles; a fragmented
  // kernel (Fire/Inception concat chains, GEMV) misses regardless.  The
  // L2-fit term adds pressure when even a tile cannot stay resident.
  const double ws = std::max(layer.working_set_bytes, 1.0);
  const double fit = std::min(1.0, proc.l2_bytes / ws);
  const double miss = (1.0 - layer.locality) * (0.3 + 0.7 * (1.0 - fit));
  return std::clamp(miss, 0.03, 1.0);
}

double CostModel::layer_dram_bytes(const Layer& layer, const Processor& proc) const {
  // Weights stream cold from DRAM once per inference.
  const double miss = layer_miss_fraction(layer, proc);
  return layer.weight_stream_bytes() + (layer.input_bytes + layer.output_bytes) * miss;
}

double CostModel::layer_compute_ms(const Layer& layer, const Processor& proc) const {
  const double eff = std::max(proc.kind_efficiency(layer.kind), 1e-3);
  return layer.flops / (proc.peak_gflops * eff * 1.0e6);
}

double CostModel::layer_memory_ms(const Layer& layer, const Processor& proc) const {
  return layer_dram_bytes(layer, proc) / proc.mem_bw_gbps * kMsPerByteAtGbps;
}

double CostModel::layer_time_ms(const Layer& layer, const Processor& proc) const {
  return std::max(layer_compute_ms(layer, proc), layer_memory_ms(layer, proc)) +
         proc.launch_overhead_ms;
}

double CostModel::model_solo_ms(const Model& model, std::size_t proc_idx) const {
  CostTable table(model, *this);
  if (model.num_layers() == 0) return 0.0;
  return table.exec_ms(proc_idx, 0, model.num_layers() - 1);
}

double CostModel::model_batch_ms(const Model& model, const Processor& proc,
                                 int batch) const {
  if (batch <= 0) return 0.0;
  const double waves =
      std::ceil(static_cast<double>(batch) / std::max(proc.batch_capacity, 1));
  double total = 0.0;
  for (const Layer& layer : model.layers()) {
    if (!proc.supports(layer.kind)) continue;  // batching bench uses CNNs only
    const double per_wave =
        std::max(layer_compute_ms(layer, proc), layer_memory_ms(layer, proc));
    // Weights are loaded once regardless of batch; activations scale.
    total += proc.launch_overhead_ms + per_wave * waves;
  }
  return total;
}

// ---- profile store ------------------------------------------------------------

namespace profile_store {
namespace {

/// Everything a ProcProfile is a function of: the model (by content hash and
/// layer count) and the processor fields the roofline reads, as raw bits so
/// a 1-ulp change is a different key.
struct Key {
  std::uint64_t model_hash = 0;
  std::uint64_t num_layers = 0;
  std::uint64_t kind = 0;
  std::uint64_t peak_gflops = 0;
  std::uint64_t mem_bw_gbps = 0;
  std::uint64_t l2_bytes = 0;
  std::uint64_t launch_overhead_ms = 0;

  bool operator==(const Key&) const = default;
};

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = hash_mix(kHashSeed, k.model_hash);
    for (const std::uint64_t v : {k.num_layers, k.kind, k.peak_gflops, k.mem_bw_gbps,
                                  k.l2_bytes, k.launch_overhead_ms}) {
      h = hash_mix(h, v);
    }
    return static_cast<std::size_t>(h);
  }
};

std::shared_ptr<const ProcProfile> build(const Model& model, const Processor& proc,
                                         const CostModel& cost) {
  const std::size_t n = model.num_layers();
  auto pp = std::make_shared<ProcProfile>();
  pp->prefix_time.assign(n + 1, 0.0);
  pp->prefix_mem.assign(n + 1, 0.0);
  pp->prefix_bytes.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    pp->prefix_time[i + 1] = pp->prefix_time[i] + cost.layer_time_ms(layer, proc);
    pp->prefix_mem[i + 1] = pp->prefix_mem[i] + cost.layer_memory_ms(layer, proc);
    pp->prefix_bytes[i + 1] = pp->prefix_bytes[i] + cost.layer_dram_bytes(layer, proc);
  }
  return pp;
}

/// This thread's store: planning threads never share a block, so a lookup
/// takes no lock and a hit's LRU bump touches only this thread's list.
LruMap<Key, std::shared_ptr<const ProcProfile>, KeyHash>& blocks() {
  thread_local LruMap<Key, std::shared_ptr<const ProcProfile>, KeyHash> store(
      kCapacity);
  return store;
}

}  // namespace

std::shared_ptr<const ProcProfile> fetch(const Model& model, const Processor& proc,
                                         const CostModel& cost, bool& missed) {
  static obs::Counter& hits = obs::Registry::global().counter("profile_store.hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("profile_store.misses");
  static obs::Counter& evictions =
      obs::Registry::global().counter("profile_store.evictions");
  const Key key{model.content_hash(),       model.num_layers(),
                static_cast<std::uint64_t>(proc.kind), bits(proc.peak_gflops),
                bits(proc.mem_bw_gbps),     bits(proc.l2_bytes),
                bits(proc.launch_overhead_ms)};
  auto& store = blocks();
  if (const auto* found = store.find(key)) {
    missed = false;
    hits.inc();
    return *found;
  }
  missed = true;
  misses.inc();
  std::shared_ptr<const ProcProfile> block = build(model, proc, cost);
  if (store.insert(key, block)) evictions.inc();
  return block;
}

std::size_t size() { return blocks().size(); }

void clear() { blocks().clear(); }

}  // namespace profile_store

// ---- CostTable --------------------------------------------------------------

CostTable::CostTable(const Model& model, const CostModel& cost)
    : model_(&model), cost_(&cost) {
  const Soc& soc = cost.soc();
  const std::size_t n = model.num_layers();
  const std::size_t p = soc.num_processors();

  per_proc_.reserve(p);
  copy_in_latency_ms_.reserve(p);
  for (std::size_t k = 0; k < p; ++k) {
    bool missed = false;
    per_proc_.push_back(profile_store::fetch(model, soc.processor(k), cost, missed));
    if (missed) ++profile_misses_;
    copy_in_latency_ms_.push_back(soc.processor(k).copy_in_latency_ms);
  }
  transfer_bw_gbps_ = cost.transfer_bw_gbps();

  npu_idx_ = soc.find(ProcKind::kNpu);
  // Forward fallback target: fastest of CPU_Big / GPU by peak throughput.
  const int cpu_b = soc.find(ProcKind::kCpuBig);
  const int gpu = soc.find(ProcKind::kGpu);
  fallback_idx_ = cpu_b;
  if (gpu >= 0 && (cpu_b < 0 || soc.processor(gpu).peak_gflops >
                                    soc.processor(cpu_b).peak_gflops)) {
    fallback_idx_ = gpu;
  }

  next_unsupported_.assign(n + 1, n);
  for (std::size_t i = n; i-- > 0;) {
    next_unsupported_[i] =
        npu_supports(model.layer(i).kind) ? next_unsupported_[i + 1] : i;
  }
}

double CostTable::range(const std::vector<double>& prefix, std::size_t i,
                        std::size_t j) const {
  if (j < i || j + 1 >= prefix.size()) return 0.0;
  return prefix[j + 1] - prefix[i];
}

SliceCost CostTable::slice_cost(std::size_t k, std::size_t i, std::size_t j) const {
  SliceCost c;
  if (j < i || j >= num_layers()) return c;
  const bool is_npu = (static_cast<int>(k) == npu_idx_);
  const std::size_t u = is_npu ? next_unsupported_[i] : num_layers();

  if (!is_npu || u > j) {
    const ProcProfile& pp = *per_proc_[k];
    c.total_ms = range(pp.prefix_time, i, j);
    c.memory_ms = range(pp.prefix_mem, i, j);
    c.compute_ms = c.total_ms - c.memory_ms;  // approx (includes overhead)
    c.dram_bytes = range(pp.prefix_bytes, i, j);
    return c;
  }

  // NPU fallback (§IV): supported prefix [i, u-1] runs on the NPU, the
  // boundary tensor is copied out, and [u, j] is forwarded to CPU_Big/GPU.
  c.used_npu_fallback = true;
  c.fallback_from_layer = u;
  const ProcProfile& npu = *per_proc_[k];
  const ProcProfile& fb = *per_proc_[static_cast<std::size_t>(fallback_idx_)];
  const double npu_ms = (u > i) ? range(npu.prefix_time, i, u - 1) : 0.0;
  const double fb_ms = range(fb.prefix_time, u, j);
  const double copy = cost_->copy_ms(model_->boundary_bytes(u),
                                     cost_->soc().processor(fallback_idx_));
  c.total_ms = npu_ms + copy + fb_ms;
  c.memory_ms = ((u > i) ? range(npu.prefix_mem, i, u - 1) : 0.0) +
                range(fb.prefix_mem, u, j) + copy;
  c.compute_ms = c.total_ms - c.memory_ms;
  c.dram_bytes = ((u > i) ? range(npu.prefix_bytes, i, u - 1) : 0.0) +
                 range(fb.prefix_bytes, u, j) + model_->boundary_bytes(u);
  return c;
}

double CostTable::stage_ms(std::size_t k, std::size_t i, std::size_t j) const {
  if (j < i || j >= num_layers()) return 0.0;
  return exec_ms(k, i, j) + boundary_copy_ms(k, i);
}

double CostTable::avg_miss_fraction(std::size_t k, std::size_t i,
                                    std::size_t j) const {
  if (j < i || j >= num_layers()) return 0.0;
  // DRAM activation bytes / raw activation bytes = traffic-weighted miss.
  // For NPU fallback slices this conservatively uses the NPU+fallback mix
  // already folded into slice_cost's dram bytes.
  const double acts = model_->range_activation_bytes(i, j);
  if (acts <= 0.0) return 0.0;
  const SliceCost c = slice_cost(k, i, j);
  const double weights = model_->range_weight_stream_bytes(i, j);
  return std::clamp((c.dram_bytes - weights) / acts, 0.0, 1.0);
}

double CostTable::mem_sensitivity(std::size_t k, std::size_t i, std::size_t j) const {
  const SliceCost c = slice_cost(k, i, j);
  if (c.total_ms <= 0.0) return 0.0;
  const double mem_share = std::clamp(c.memory_ms / c.total_ms, 0.0, 1.0);
  return std::clamp(0.45 * mem_share + 0.55 * avg_miss_fraction(k, i, j), 0.0, 1.0);
}

double CostTable::dram_bytes(std::size_t k, std::size_t i, std::size_t j) const {
  return slice_cost(k, i, j).dram_bytes;
}

CostTable::SliceSimCosts CostTable::slice_sim_costs(std::size_t k, std::size_t i,
                                                    std::size_t j) const {
  SliceSimCosts out;
  if (j < i || j >= num_layers()) return out;
  const SliceCost c = slice_cost(k, i, j);
  out.exec_ms = c.total_ms;
  out.dram_bytes = c.dram_bytes;
  // avg_miss_fraction(k, i, j), evaluated once against the same SliceCost
  // (slice_cost is deterministic, so reusing `c` is exact).
  double miss = 0.0;
  const double acts = model_->range_activation_bytes(i, j);
  if (acts > 0.0) {
    const double weights = model_->range_weight_stream_bytes(i, j);
    miss = std::clamp((c.dram_bytes - weights) / acts, 0.0, 1.0);
  }
  if (c.total_ms > 0.0) {
    const double mem_share = std::clamp(c.memory_ms / c.total_ms, 0.0, 1.0);
    out.sensitivity = std::clamp(0.45 * mem_share + 0.55 * miss, 0.0, 1.0);
    const double demand_gbps = c.dram_bytes / (c.total_ms * 1.0e6);
    const double bw_term =
        std::clamp(demand_gbps / (CostModel::kBusContentionOnset *
                                  cost_->soc().bus_bw_gbps()),
                   0.0, 1.0);
    out.intensity = std::clamp(0.6 * bw_term + 0.4 * miss, 0.0, 1.0);
  }
  return out;
}

double CostTable::intensity(std::size_t k, std::size_t i, std::size_t j) const {
  const SliceCost c = slice_cost(k, i, j);
  if (c.total_ms <= 0.0) return 0.0;
  const double demand_gbps = c.dram_bytes / (c.total_ms * 1.0e6);
  const double bw_term = std::clamp(
      demand_gbps / (CostModel::kBusContentionOnset * cost_->soc().bus_bw_gbps()),
      0.0, 1.0);
  return std::clamp(0.6 * bw_term + 0.4 * avg_miss_fraction(k, i, j), 0.0, 1.0);
}

}  // namespace h2p
