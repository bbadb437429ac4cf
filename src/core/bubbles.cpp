#include "core/bubbles.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

#include "core/partition.h"
#include "obs/trace.h"
#include "util/lru_map.h"
#include "util/simd.h"

namespace h2p {

namespace {

// Source of StaticEvaluator generation ids; 0 is never handed out.
std::atomic<std::uint64_t> g_next_generation{1};

}  // namespace

StaticEvaluator::StaticEvaluator(const Soc& soc, std::vector<const Model*> models)
    : soc_(&soc),
      models_(std::move(models)),
      cost_(soc),
      contention_(soc),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {
  obs::Span span("planner.cost_tables");
  span.arg("models", static_cast<double>(models_.size()));
  const int cpu_b = soc.find(ProcKind::kCpuBig);
  const std::size_t intensity_proc = cpu_b >= 0 ? static_cast<std::size_t>(cpu_b) : 0;
  std::size_t misses = 0;
  for (const Model* m : models_) {
    assert(m != nullptr);
    const CostTable& table = tables_.emplace_back(*m, cost_);
    misses += table.profile_misses();
    // true_contention_intensity (soc/perf_counters.h), read off this table.
    const std::size_t n = m->num_layers();
    model_intensity_.push_back(n == 0 ? 0.0 : table.intensity(intensity_proc, 0, n - 1));
  }
  span.arg("misses", static_cast<double>(misses));

  padded_procs_ = simd::padded_size(soc.num_processors());
  coupling_rows_.assign(soc.num_processors() * padded_procs_, 0.0);
  contention_.fill_coupling_rows(coupling_rows_, padded_procs_);
}

double StaticEvaluator::stage_solo_ms(const ModelPlan& mp, std::size_t k) const {
  const Slice& s = mp.slices[k];
  if (s.empty()) return 0.0;
  const CostTable& t = tables_[mp.model_index];
  double ms = t.exec_ms(k, s.begin, s.end - 1);
  if (s.begin > 0) ms += t.boundary_copy_ms(k, s.begin);
  return ms;
}

double StaticEvaluator::stage_intensity(const ModelPlan& mp, std::size_t k) const {
  const Slice& s = mp.slices[k];
  if (s.empty()) return 0.0;
  return tables_[mp.model_index].intensity(k, s.begin, s.end - 1);
}

double StaticEvaluator::stage_sensitivity(const ModelPlan& mp, std::size_t k) const {
  const Slice& s = mp.slices[k];
  if (s.empty()) return 0.0;
  return tables_[mp.model_index].mem_sensitivity(k, s.begin, s.end - 1);
}

double StaticEvaluator::model_intensity(std::size_t idx) const {
  return model_intensity_[idx];
}

std::vector<std::vector<double>> StaticEvaluator::stage_times(
    const PipelinePlan& plan, bool with_contention) const {
  const std::size_t m = plan.models.size();
  const std::size_t K = plan.num_stages;
  std::vector<std::vector<double>> times(m, std::vector<double>(K, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      times[i][k] = stage_solo_ms(plan.models[i], k);
    }
  }
  if (!with_contention || m == 0) return times;

  // Apply co-execution slowdown column by column: column j holds the slices
  // { (i, k) : i + k = j } that the wavefront runs concurrently.  The
  // aggressor sum is the dense fixed-order Eq. 2 dot product (util/simd.h):
  // stage k == processor k, every member deposits its intensity at index k
  // of a zero-padded per-processor buffer, and a victim's own entry is
  // excluded by the coupling diagonal being zero — the exact reduction the
  // DES rate loop and the incremental scorer compute.
  assert(K <= soc_->num_processors());
  std::vector<std::pair<std::size_t, std::size_t>> members;  // (slot, stage)
  std::vector<double> col_intensity(padded_procs_, 0.0);
  for (std::size_t j = 0; j < wavefront_columns(m, K); ++j) {
    members.clear();
    std::fill(col_intensity.begin(), col_intensity.end(), 0.0);
    for (std::size_t k = 0; k < K; ++k) {
      if (j < k) continue;
      const std::size_t i = j - k;
      if (i >= m) continue;
      if (plan.models[i].slices[k].empty()) continue;
      members.emplace_back(i, k);
      col_intensity[k] = stage_intensity(plan.models[i], k);
    }
    if (members.size() < 2) continue;
    for (const auto& [i, k] : members) {
      const double extra =
          simd::fixed_dot(coupling_row(k), col_intensity.data(), padded_procs_);
      const double factor = ContentionModel::slowdown_from_extra(
          extra, stage_sensitivity(plan.models[i], k));
      times[i][k] *= factor;
    }
  }
  return times;
}

namespace {

using StageGrid = std::vector<std::vector<double>>;

/// Sum over wavefront columns of the column maximum.
double grid_makespan(const StageGrid& times, std::size_t m, std::size_t K) {
  double total = 0.0;
  for (std::size_t j = 0; j < wavefront_columns(m, K); ++j) {
    double colmax = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      if (j < k) continue;
      const std::size_t i = j - k;
      if (i >= m) continue;
      colmax = std::max(colmax, times[i][k]);
    }
    total += colmax;
  }
  return total;
}

/// Eq. 3 summed over all columns.  A column occupies every stage k in
/// [0, K): stages with no slice (ramp up / drain / empty slices) idle for
/// the whole column.
double grid_bubbles(const StageGrid& times, std::size_t m, std::size_t K) {
  const auto cell = [&](std::size_t j, std::size_t k) {
    return (j >= k && j - k < m) ? times[j - k][k] : 0.0;
  };
  double bubbles = 0.0;
  for (std::size_t j = 0; j < wavefront_columns(m, K); ++j) {
    double colmax = 0.0;
    for (std::size_t k = 0; k < K; ++k) colmax = std::max(colmax, cell(j, k));
    for (std::size_t k = 0; k < K; ++k) bubbles += colmax - cell(j, k);
  }
  return bubbles;
}

}  // namespace

double StaticEvaluator::makespan_ms(const PipelinePlan& plan,
                                    bool with_contention) const {
  return grid_makespan(stage_times(plan, with_contention), plan.models.size(),
                       plan.num_stages);
}

double StaticEvaluator::total_bubble_ms(const PipelinePlan& plan,
                                        bool with_contention) const {
  return grid_bubbles(stage_times(plan, with_contention), plan.models.size(),
                      plan.num_stages);
}

StaticEvaluator::StaticSummary StaticEvaluator::summarize(
    const PipelinePlan& plan, bool with_contention) const {
  const StageGrid times = stage_times(plan, with_contention);
  const std::size_t m = plan.models.size();
  const std::size_t K = plan.num_stages;
  return StaticSummary{grid_makespan(times, m, K), grid_bubbles(times, m, K)};
}

double StaticEvaluator::resident_bytes(const ModelPlan& mp) const {
  // Weights plus runtime workspace: MNN-style backends keep im2col/GEMM
  // scratch and rearranged weight copies alive, empirically ~1.8x the raw
  // weight bytes (this reproduces Fig 9's ~2 GB footprint for a 3-large-
  // model pipeline), plus the largest live activation.
  constexpr double kWorkspaceFactor = 1.8;
  const Model& m = model(mp.model_index);
  double bytes = 0.0;
  double peak_act = 0.0;
  for (const Slice& s : mp.slices) {
    if (s.empty()) continue;
    bytes += m.range_param_bytes(s.begin, s.end - 1);
    peak_act = std::max(peak_act, m.peak_activation_bytes(s.begin, s.end - 1));
  }
  return kWorkspaceFactor * bytes + peak_act;
}

bool StaticEvaluator::satisfies_memory(const PipelinePlan& plan) const {
  const std::size_t m = plan.models.size();
  const std::size_t K = plan.num_stages;
  // Constraint (6): every wavefront column's concurrent residents must fit.
  // A slot's resident bytes do not depend on the column, and a tail-sweep
  // candidate changes one slot, so each slot's bytes are memoized under
  // (generation, model index, slices) — the key is exact, so a hit is the
  // value resident_bytes would return.  The column sums still add them in
  // k-ascending order, so every sum is the one a per-column recomputation
  // would produce.
  struct SlotBytes {
    std::uint64_t generation = 0;  // 0: invalid
    std::size_t model_index = 0;
    std::vector<Slice> slices;
    double bytes = 0.0;
  };
  thread_local std::vector<SlotBytes> memo;
  if (memo.size() < m) memo.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const ModelPlan& mp = plan.models[i];
    SlotBytes& slot = memo[i];
    if (slot.generation == generation_ && slot.model_index == mp.model_index &&
        slot.slices == mp.slices) {
      continue;
    }
    slot.generation = 0;
    slot.bytes = resident_bytes(mp);
    slot.model_index = mp.model_index;
    slot.slices = mp.slices;
    slot.generation = generation_;
  }
  for (std::size_t j = 0; j < wavefront_columns(m, K); ++j) {
    double resident = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      if (j < k) continue;
      const std::size_t i = j - k;
      if (i >= m) continue;
      resident += memo[i].bytes;
    }
    if (resident > soc_->available_bytes()) return false;
  }
  return true;
}

namespace slicing_memo {
namespace {

/// A model's key within one SoC view: its content hash and the stage count.
struct ModelKey {
  std::uint64_t hash = 0;
  std::uint64_t stages = 0;

  bool operator==(const ModelKey&) const = default;
};

struct ModelKeyHash {
  std::size_t operator()(const ModelKey& k) const {
    return static_cast<std::size_t>(hash_mix(k.hash, k.stages));
  }
};

using SocSlicings = LruMap<ModelKey, std::vector<Slice>, ModelKeyHash>;

/// This thread's memo, keyed by the exact SoC fingerprint first, so each
/// view stores its (long) fingerprint once however many models it slices.
LruMap<std::string, SocSlicings>& slicings() {
  thread_local LruMap<std::string, SocSlicings> memo(kSocCapacity);
  return memo;
}

}  // namespace

void clear() { slicings().clear(); }

}  // namespace slicing_memo

std::vector<Slice> horizontal_slices(const StaticEvaluator& eval, std::size_t idx,
                                     std::size_t num_stages) {
  using namespace slicing_memo;
  const std::string& fingerprint = eval.soc().fingerprint();
  const ModelKey key{eval.model(idx).content_hash(), num_stages};
  LruMap<std::string, SocSlicings>& memo = slicings();
  SocSlicings* soc = memo.find(fingerprint);
  if (soc != nullptr) {
    if (const std::vector<Slice>* hit = soc->find(key)) return *hit;
  } else {
    memo.insert(fingerprint, SocSlicings(kModelsPerSoc));
    soc = memo.find(fingerprint);
  }
  std::vector<Slice> slices = partition_model(eval.table(idx), num_stages).slices;
  soc->insert(key, slices);
  return slices;
}

PipelinePlan horizontal_plan(const StaticEvaluator& eval, std::size_t num_stages,
                             std::nullptr_t) {
  PipelinePlan plan;
  plan.num_stages = num_stages;
  plan.models.resize(eval.num_models());
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    plan.models[i].model_index = i;
    plan.models[i].slices = horizontal_slices(eval, i, num_stages);
  }
  return plan;
}

}  // namespace h2p
