#include "core/work_stealing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace h2p {

std::vector<std::size_t> slices_to_boundaries(const ModelPlan& mp,
                                              std::size_t num_layers) {
  const std::size_t K = mp.slices.size();
  std::vector<std::size_t> b(K + 1, 0);
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < K; ++k) {
    b[k] = cursor;
    if (!mp.slices[k].empty()) cursor = mp.slices[k].end;
  }
  b[K] = num_layers;
  return b;
}

void boundaries_to_slices(ModelPlan& mp, const std::vector<std::size_t>& b) {
  const std::size_t K = mp.slices.size();
  for (std::size_t k = 0; k < K; ++k) mp.slices[k] = Slice{b[k], b[k + 1]};
}

int align_to_profile(ModelPlan& mp, const StaticEvaluator& eval,
                     std::span<const double> target, std::size_t max_moves) {
  const std::size_t K = mp.slices.size();
  const std::size_t n = eval.model(mp.model_index).num_layers();
  if (K < 2 || n == 0) return 0;

  std::vector<std::size_t> b = slices_to_boundaries(mp, n);
  boundaries_to_slices(mp, b);  // normalize empties into canonical form

  // Solo time of stage k spanning [lo, hi) — the same quantity
  // StaticEvaluator::stage_solo_ms reads, straight off the cost table so
  // probes need no ModelPlan copies.
  const CostTable& table = eval.table(mp.model_index);
  const auto stage_ms = [&table](std::size_t k, std::size_t lo, std::size_t hi) {
    if (hi <= lo) return 0.0;
    double ms = table.exec_ms(k, lo, hi - 1);
    if (lo > 0) ms += table.boundary_copy_ms(k, lo);
    return ms;
  };

  // Per-stage deviation from the target profile, maintained incrementally:
  // shifting boundary k only re-times stages k-1 and k.
  std::vector<double> dev(K);
  double current = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    dev[k] = std::fabs(stage_ms(k, b[k], b[k + 1]) - target[k]);
    current += dev[k];
  }

  int moves = 0;
  for (std::size_t iter = 0; iter < max_moves; ++iter) {
    double best = current;
    std::size_t best_k = 0;
    int best_dir = 0;
    double best_dev_lo = 0.0;
    double best_dev_hi = 0.0;
    for (std::size_t k = 1; k < K; ++k) {
      for (int dir : {-1, +1}) {
        if (dir < 0 && (b[k] == 0 || b[k] - 1 < b[k - 1])) continue;
        if (dir > 0 && b[k] + 1 > b[k + 1]) continue;
        const std::size_t nb =
            dir < 0 ? b[k] - 1 : b[k] + 1;
        const double dev_lo = std::fabs(stage_ms(k - 1, b[k - 1], nb) - target[k - 1]);
        const double dev_hi = std::fabs(stage_ms(k, nb, b[k + 1]) - target[k]);
        const double d = current - dev[k - 1] - dev[k] + dev_lo + dev_hi;
        if (d + 1e-12 < best) {
          best = d;
          best_k = k;
          best_dir = dir;
          best_dev_lo = dev_lo;
          best_dev_hi = dev_hi;
        }
      }
    }
    if (best_dir == 0) break;
    b[best_k] = best_dir < 0 ? b[best_k] - 1 : b[best_k] + 1;
    dev[best_k - 1] = best_dev_lo;
    dev[best_k] = best_dev_hi;
    current = best;
    ++moves;
  }
  boundaries_to_slices(mp, b);
  return moves;
}

int vertical_align(PipelinePlan& plan, const StaticEvaluator& eval,
                   const WorkStealingOptions& opts, const PlanScorer& scorer,
                   double* score_out) {
  const std::size_t K = plan.num_stages;
  const std::size_t m = plan.models.size();
  if (K < 2 || m < 2) return 0;

  int total_moves = 0;
  for (std::size_t u = 0; u < m; u += K) {  // slide the CW by step K
    const std::size_t end = std::min(u + K, m);
    if (end - u < 2) break;

    // Critical path: the member with the largest total processing time.
    std::size_t ic = u;
    double worst = -1.0;
    for (std::size_t i = u; i < end; ++i) {
      double sum = 0.0;
      for (std::size_t k = 0; k < K; ++k) sum += eval.stage_solo_ms(plan.models[i], k);
      if (sum > worst) {
        worst = sum;
        ic = i;
      }
    }

    std::vector<double> target(K, 0.0);
    for (std::size_t k = 0; k < K; ++k) {
      target[k] = eval.stage_solo_ms(plan.models[ic], k);
    }

    // Work-steal right (models after the critical path) then left (before),
    // mirroring Algorithm 3's two inner loops.
    for (std::size_t i = ic + 1; i < end; ++i) {
      total_moves += align_to_profile(plan.models[i], eval, target);
    }
    for (std::size_t i = ic; i-- > u;) {
      total_moves += align_to_profile(plan.models[i], eval, target);
    }
  }

  if (opts.tail_optimization) optimize_tail(plan, eval, scorer, score_out);
  return total_moves;
}

CollapseBound::CollapseBound(const StaticEvaluator& eval, const PipelinePlan& plan)
    : K_(plan.num_stages), row_(plan.models.size() * plan.num_stages),
      proc_solo_(plan.num_stages, 0.0) {
  const std::size_t m = plan.models.size();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < K_; ++k) {
      row_[i * K_ + k] = eval.stage_solo_ms(plan.models[i], k);
    }
  }
  for (std::size_t k = 0; k < K_; ++k) {
    for (std::size_t i = 0; i < m; ++i) proc_solo_[k] += row_[i * K_ + k];
  }
}

double CollapseBound::bound(std::size_t slot, std::size_t s,
                            double collapse_ms) const {
  const double* row = row_.data() + slot * K_;
  double lb = 0.0;
  for (std::size_t k = 0; k < K_; ++k) {
    double work = proc_solo_[k] - row[k];
    if (k == s) work += collapse_ms;
    if (work > lb) lb = work;
  }
  return lb;
}

void CollapseBound::apply(std::size_t slot, std::size_t s, double collapse_ms) {
  double* row = row_.data() + slot * K_;
  for (std::size_t k = 0; k < K_; ++k) {
    const double next = k == s ? collapse_ms : 0.0;
    proc_solo_[k] += next - row[k];
    row[k] = next;
  }
}

bool optimize_tail(PipelinePlan& plan, const StaticEvaluator& eval,
                   const PlanScorer& scorer, double* score_out,
                   double known_score) {
  const std::size_t K = plan.num_stages;
  const std::size_t m = plan.models.size();
  if (K < 2 || m == 0) return false;
  obs::Span span("planner.tail_sweep");
  span.arg("models", static_cast<double>(m));
  const bool use_static = !scorer;

  // The static mode rescores through the wavefront column cache; the DES
  // mode needs only the solo work its collapse bound reads.
  std::optional<IncrementalStaticScorer> inc;
  std::optional<CollapseBound> lb;
  if (use_static) {
    inc.emplace(eval, plan);
  } else {
    lb.emplace(eval, plan);
  }
  // Score of the *current* plan, carried across the sweep — both scorers
  // are deterministic and the plan only changes on an accepted candidate,
  // so this equals re-scoring the plan from scratch every iteration.
  const bool rescore = !use_static && std::isnan(known_score);
  double plan_score = use_static ? inc->base_score()
                      : rescore  ? scorer(plan)
                                 : known_score;
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;
  std::uint64_t score_calls = rescore ? 1 : 0;

  // §V-C phase 2: local search re-allocating workloads, tail-first (the
  // drain columns benefit most), then over the rest of the sequence — each
  // model's candidate set is the K single-processor collapses, accepted
  // only when the score strictly improves.
  bool changed = false;
  std::vector<Slice> collapsed(K);
  const auto make_collapsed = [&](std::size_t s, std::size_t n) {
    std::fill(collapsed.begin(), collapsed.end(), Slice{0, 0});
    collapsed[s] = Slice{0, n};
  };
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t i = m - 1 - t;
    const CostTable& table = eval.table(plan.models[i].model_index);
    const std::size_t n = table.num_layers();
    // Solo time of the whole model on processor s: the collapsed stage's
    // stage_solo_ms (it starts at layer 0, so it has no inbound copy).
    const auto collapse_ms = [&](std::size_t s) {
      return n == 0 ? 0.0 : table.exec_ms(s, 0, n - 1);
    };

    // Score the K collapses in one ascending pass (§V-C: "the search space
    // is only K"), accepting as it goes: ties keep the lowest index.  Both
    // skips are decision-preserving.  A candidate identical to the current
    // layout scores exactly plan_score (never a strict improvement).  A
    // candidate whose busiest-processor solo work already reaches `bar` +
    // 1e-6 — bar being the incumbent or a lower score an earlier collapse
    // already has — cannot be accepted by the DES either: contention and
    // chaining only push the makespan further up, and `best` is by then
    // within 1e-9 of bar.
    double bar = plan_score;
    double best = plan_score;
    int accepted = -1;
    for (std::size_t s = 0; s < K; ++s) {
      make_collapsed(s, n);
      const std::vector<Slice>& cur = plan.models[i].slices;
      if (std::equal(collapsed.begin(), collapsed.end(), cur.begin(), cur.end())) {
        continue;
      }
      ++candidates;
      double score = 0.0;
      if (use_static) {
        // Incremental static scoring: only the ≤ K affected wavefront
        // columns are recomputed; bit-identical to a full evaluation.
        score = inc->score_with(i, collapsed);
      } else {
        if (lb->bound(i, s, collapse_ms(s)) >= bar + 1e-6) {
          ++pruned;
          continue;
        }
        // Full DES scoring in place: the candidate slicing is swapped into
        // the plan for the one call and swapped back out.
        std::swap(plan.models[i].slices, collapsed);
        score = scorer(plan);
        std::swap(plan.models[i].slices, collapsed);
        ++score_calls;
        bar = std::min(bar, score);
      }
      if (score + 1e-9 < best) {
        best = score;
        accepted = static_cast<int>(s);
      }
    }
    if (accepted >= 0) {
      const auto s = static_cast<std::size_t>(accepted);
      make_collapsed(s, n);
      plan.models[i].slices.assign(collapsed.begin(), collapsed.end());
      if (use_static) {
        inc->apply(i, plan.models[i].slices);
      } else {
        lb->apply(i, s, collapse_ms(s));
      }
      plan_score = best;
      changed = true;
    }
  }

  static obs::Counter& c_candidates =
      obs::Registry::global().counter("planner.tail_candidates");
  static obs::Counter& c_pruned =
      obs::Registry::global().counter("planner.tail_pruned");
  static obs::Counter& c_calls =
      obs::Registry::global().counter("planner.score_calls.tail");
  c_candidates.inc(candidates);
  c_pruned.inc(pruned);
  c_calls.inc(score_calls);
  if (score_out != nullptr) *score_out = plan_score;
  return changed;
}

}  // namespace h2p
