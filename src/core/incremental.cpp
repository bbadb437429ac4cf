#include "core/incremental.h"

#include <algorithm>
#include <cassert>

#include "contention/contention_model.h"
#include "util/arena.h"
#include "util/simd.h"

namespace h2p {
namespace {

/// Candidate-row scratch shared by the const scoring entries.  Async
/// prefetch jobs plan concurrently with the serving thread, so the scratch
/// is per-thread.  All per-stage buffers are carved from one
/// monotonic arena sized on first use (re-carved only when a scorer with a
/// different geometry shows up), so the steady-state candidate evaluation
/// is allocation-free — including the tail sweep's rescore rows, which
/// previously grew via std::vector::resize mid-scoring.
struct ScorerWorkspace {
  ModelPlan probe;  // vector-backed by API; capacity survives across calls

  util::MonotonicArena arena;
  std::span<double> row_solo;
  std::span<double> row_intensity;
  std::span<double> row_sensitivity;
  std::span<std::uint8_t> row_active;
  std::span<double> col_intensity;  // [padded_procs] dense aggressor buffer
  std::span<double> col_times;      // [Kp] contended column times
  std::span<double> col_sens;       // [Kp] member sensitivities by stage
  std::size_t kp = 0;
  std::size_t pp = 0;

  void prepare(std::size_t Kp, std::size_t Pp) {
    if (kp == Kp && pp == Pp) return;
    arena.reset();
    arena.reserve(Kp * (5 * sizeof(double) + sizeof(std::uint8_t)) +
                  Pp * sizeof(double) +
                  8 * util::MonotonicArena::kAlignment);
    row_solo = arena.make_span<double>(Kp);
    row_intensity = arena.make_span<double>(Kp);
    row_sensitivity = arena.make_span<double>(Kp);
    row_active = arena.make_span<std::uint8_t>(Kp);
    col_intensity = arena.make_span<double>(Pp);
    col_times = arena.make_span<double>(Kp);
    col_sens = arena.make_span<double>(Kp);
    kp = Kp;
    pp = Pp;
  }
};

ScorerWorkspace& tls_workspace() {
  thread_local ScorerWorkspace s;
  return s;
}

}  // namespace

IncrementalStaticScorer::IncrementalStaticScorer(const StaticEvaluator& eval,
                                                 const PipelinePlan& plan)
    : eval_(&eval),
      m_(plan.models.size()),
      K_(plan.num_stages),
      Kp_(simd::padded_size(plan.num_stages)) {
  assert(K_ <= eval.soc().num_processors());
  model_index_.reserve(m_);
  for (const ModelPlan& mp : plan.models) model_index_.push_back(mp.model_index);

  cell_solo_.assign(m_ * Kp_, 0.0);
  cell_intensity_.assign(m_ * Kp_, 0.0);
  cell_sensitivity_.assign(m_ * Kp_, 0.0);
  cell_active_.assign(m_ * Kp_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    store_row(i, fill_row(model_index_[i], plan.models[i].slices));
  }

  if (m_ == 0) return;
  colmax_.resize(m_ + K_ - 1);
  refresh_columns(0, colmax_.size());
}

void IncrementalStaticScorer::refresh_columns(std::size_t lo, std::size_t hi) {
  const RowView no_override;  // slot m_ is out of range: every row is cached
  for (std::size_t j = lo; j < hi; ++j) {
    colmax_[j] = column_max(j, m_, no_override);
  }
  base_score_ = 0.0;
  for (const double c : colmax_) base_score_ += c;
}

IncrementalStaticScorer::RowView IncrementalStaticScorer::fill_row(
    std::size_t model_index, std::span<const Slice> slices) const {
  assert(slices.size() == K_);
  // Route through the evaluator's own accessors so the cached values are
  // the exact doubles the non-incremental scorer would see.  The workspace
  // is thread-local; the row spans are arena-backed and zero-padded to Kp_,
  // the cell grid's row stride.
  ScorerWorkspace& ws = tls_workspace();
  ws.prepare(Kp_, eval_->padded_procs());
  ModelPlan& probe = ws.probe;
  probe.model_index = model_index;
  probe.slices.assign(slices.begin(), slices.end());
  for (std::size_t k = 0; k < K_; ++k) {
    ws.row_solo[k] = eval_->stage_solo_ms(probe, k);
    ws.row_intensity[k] = eval_->stage_intensity(probe, k);
    ws.row_sensitivity[k] = eval_->stage_sensitivity(probe, k);
    ws.row_active[k] = probe.slices[k].empty() ? 0 : 1;
  }
  for (std::size_t k = K_; k < Kp_; ++k) {
    ws.row_solo[k] = 0.0;
    ws.row_intensity[k] = 0.0;
    ws.row_sensitivity[k] = 0.0;
    ws.row_active[k] = 0;
  }
  return RowView{ws.row_solo.data(), ws.row_intensity.data(),
                 ws.row_sensitivity.data(), ws.row_active.data()};
}

void IncrementalStaticScorer::store_row(std::size_t slot, const RowView& row) {
  const std::size_t base = slot * Kp_;
  for (std::size_t k = 0; k < Kp_; ++k) {
    cell_solo_[base + k] = row.solo[k];
    cell_intensity_[base + k] = row.intensity[k];
    cell_sensitivity_[base + k] = row.sensitivity[k];
    cell_active_[base + k] = row.active[k];
  }
}

double IncrementalStaticScorer::column_max(std::size_t j, std::size_t slot,
                                           const RowView& row_override) const {
  // Mirrors StaticEvaluator::stage_times for one column: members gathered
  // in ascending-stage order deposit their intensity into the dense
  // per-processor buffer, each victim's Eq. 2 sum is the fixed-order dot
  // product against its coupling row (the zero diagonal excludes the victim
  // itself), and the column max is a lane-wide reduction over the contended
  // times.  K is small (<= the processor count), so the member metadata
  // lives in the thread-local arena workspace.
  ScorerWorkspace& ws = tls_workspace();
  ws.prepare(Kp_, eval_->padded_procs());
  const std::size_t Pp = ws.pp;
  double* coli = ws.col_intensity.data();
  double* colt = ws.col_times.data();
  for (std::size_t q = 0; q < Pp; ++q) coli[q] = 0.0;
  for (std::size_t q = 0; q < Kp_; ++q) colt[q] = 0.0;

  std::size_t num_members = 0;
  std::size_t solo_k = 0;  // the member's stage when num_members == 1
  for (std::size_t k = 0; k < K_; ++k) {
    if (j < k) continue;
    const std::size_t i = j - k;
    if (i >= m_) continue;
    double solo, intensity, sensitivity;
    bool active;
    if (i == slot) {
      solo = row_override.solo[k];
      intensity = row_override.intensity[k];
      sensitivity = row_override.sensitivity[k];
      active = row_override.active[k] != 0;
    } else {
      const std::size_t idx = i * Kp_ + k;
      solo = cell_solo_[idx];
      intensity = cell_intensity_[idx];
      sensitivity = cell_sensitivity_[idx];
      active = cell_active_[idx] != 0;
    }
    if (!active) continue;
    coli[k] = intensity;
    colt[k] = solo;
    ws.col_sens[k] = sensitivity;
    ++num_members;
    solo_k = k;
  }

  if (num_members == 0) return 0.0;
  if (num_members < 2) {
    // Single member: its dense Eq. 2 sum is gamma(k, k) * I_k = 0 exactly,
    // so the contended factor is min(1 + 0, cap) = 1.0 and solo * 1.0 is
    // bit-identical to skipping contention — the old early-out, kept as a
    // pure fast path.
    return colt[solo_k];
  }
  for (std::size_t k = 0; k <= j && k < K_; ++k) {
    // Members with zero solo time stay zero under any factor and can't win
    // the max; stages with no member are zero by construction.
    if (colt[k] == 0.0) continue;
    const double extra = simd::fixed_dot(eval_->coupling_row(k), coli, Pp);
    const double factor =
        ContentionModel::slowdown_from_extra(extra, ws.col_sens[k]);
    colt[k] *= factor;
  }
  return simd::fixed_max(colt, Kp_, 0.0);
}

double IncrementalStaticScorer::score_with(std::size_t slot,
                                           std::span<const Slice> slices) const {
  if (m_ == 0) return 0.0;
  assert(slot < m_);
  const RowView row = fill_row(model_index_[slot], slices);

  const std::size_t num_cols = colmax_.size();
  const std::size_t hi = std::min(slot + K_, num_cols);  // exclusive
  double total = 0.0;
  // Full ascending column sum, exactly as makespan_ms performs it — only
  // the ≤ K affected columns are *recomputed*.
  for (std::size_t j = 0; j < num_cols; ++j) {
    total += (j >= slot && j < hi) ? column_max(j, slot, row) : colmax_[j];
  }
  return total;
}

void IncrementalStaticScorer::apply(std::size_t slot,
                                    std::span<const Slice> slices) {
  if (m_ == 0) return;
  assert(slot < m_);
  store_row(slot, fill_row(model_index_[slot], slices));

  refresh_columns(slot, std::min(slot + K_, colmax_.size()));
}

double fork_join_wavefront_ms(const ContentionModel& contention,
                              std::span<const exec::ScheduledSlice> slices,
                              bool with_contention) {
  const std::size_t n = slices.size();
  if (n == 0) return 0.0;

  // Longest-path level per slice; deps always point at earlier entries
  // (slices arrive in a topological order), so one forward pass suffices.
  std::vector<std::size_t> level(n, 0);
  std::size_t num_levels = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t d : slices[i].deps) {
      assert(d < i && "fork_join_wavefront_ms: window not self-contained");
      level[i] = std::max(level[i], level[d] + 1);
    }
    num_levels = std::max(num_levels, level[i] + 1);
  }

  std::vector<std::size_t> members;
  std::vector<Aggressor> others;
  double total = 0.0;
  for (std::size_t lv = 0; lv < num_levels; ++lv) {
    members.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (level[i] == lv) members.push_back(i);
    }
    // Per-processor serialized sum of the level's contended member times;
    // the level takes its slowest processor.
    double level_ms = 0.0;
    for (const std::size_t i : members) {
      double proc_ms = 0.0;
      for (const std::size_t j : members) {
        if (slices[j].proc_idx != slices[i].proc_idx) continue;
        double t = slices[j].solo_ms();
        if (with_contention) {
          others.clear();
          for (const std::size_t o : members) {
            if (slices[o].proc_idx == slices[j].proc_idx) continue;
            others.push_back(Aggressor{slices[o].proc_idx, slices[o].intensity});
          }
          t *= contention.slowdown(slices[j].proc_idx, slices[j].sensitivity,
                                   others);
        }
        proc_ms += t;
      }
      level_ms = std::max(level_ms, proc_ms);
    }
    total += level_ms;
  }
  return total;
}

}  // namespace h2p
