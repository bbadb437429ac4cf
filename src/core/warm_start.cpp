// Seeded replanning: Hetero2PipePlanner::plan_warm and plan_degraded.
//
// A near-miss plan-cache entry (exec::PlanCache::find_near) already paid
// for the expensive parts of planning its window: the Algorithm-1 DPs, the
// mitigation ordering and the DES-scored alignment.  plan_warm inherits the
// seed's boundaries and order, DP-slices only the one model the window
// adds, places it by Def. 4 and auditions its slicing with the incremental
// static scorer; plan_degraded projects the window's healthy-SoC plan onto
// the surviving processors.  Both then share one decode, slot match,
// relabel, settle and report — two DES evaluations and one DES-scored tail
// sweep, against the hundreds of DES scorings a cold plan spends.
#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/incremental.h"
#include "core/mitigation.h"
#include "core/planner.h"
#include "core/work_stealing.h"
#include "exec/compiled_plan.h"
#include "obs/trace.h"

namespace h2p {
namespace {

/// The seed as a grid plan, or nullopt when it cannot seed.  A DAG plan can
/// occupy one (slot, proc) cell per slice and still carry fork/join edges
/// the grid round-trip would silently drop, so those are refused up front,
/// not just the duplicate (slot, proc) cells to_pipeline_plan throws on.
std::optional<PipelinePlan> decode_seed(const exec::CompiledPlan& seed) {
  if (!seed.chain_precedence()) return std::nullopt;
  try {
    return exec::to_pipeline_plan(seed);
  } catch (const std::exception&) {
    return std::nullopt;  // non-grid schedule; cannot seed
  }
}

/// Seed slots matched to the evaluator's models by name, multiset-wise:
/// duplicates pair up in (slot order, evaluator order).
struct SlotMatch {
  std::vector<std::size_t> model_of_slot;  // evaluator index; m = removed
  std::size_t removed = 0;                 // seed slots left unmatched
  std::vector<std::size_t> added;          // unmatched evaluator indices, ascending
};

SlotMatch match_slots(const exec::CompiledPlan& seed,
                      const StaticEvaluator& eval) {
  const std::size_t m = eval.num_models();
  // Each slot takes the first unmatched model of its name, linear over a
  // window's few models.
  std::vector<bool> matched(m, false);
  SlotMatch match;
  match.model_of_slot.assign(seed.num_models, m);
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    std::size_t i = 0;
    while (i < m && (matched[i] || eval.model(i).name() != seed.model_names[slot])) {
      ++i;
    }
    if (i == m) {
      ++match.removed;
      continue;
    }
    matched[i] = true;
    match.model_of_slot[slot] = i;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (!matched[i]) match.added.push_back(i);
  }
  return match;
}

/// optimize_tail's candidate set for one slot — the K single-processor
/// collapses — scored against the slot's current slicing by the
/// incremental static scorer (O(K²) work per candidate) and accepted only
/// on strict improvement, with the same ascending-collapse tie-breaking.
void audition_collapses(PipelinePlan& plan, const StaticEvaluator& eval,
                        std::size_t slot) {
  const IncrementalStaticScorer inc(eval, plan);
  const std::size_t K = plan.num_stages;
  const std::size_t n = eval.model(plan.models[slot].model_index).num_layers();
  std::vector<Slice> collapsed(K);
  double best = inc.base_score();
  int accepted = -1;
  for (std::size_t s = 0; s < K; ++s) {
    std::fill(collapsed.begin(), collapsed.end(), Slice{0, 0});
    collapsed[s] = Slice{0, n};
    const std::vector<Slice>& cur = plan.models[slot].slices;
    if (std::equal(collapsed.begin(), collapsed.end(), cur.begin(), cur.end())) {
      continue;
    }
    const double score = inc.score_with(slot, collapsed);
    if (score + 1e-9 < best) {
      best = score;
      accepted = static_cast<int>(s);
    }
  }
  if (accepted < 0) return;
  std::fill(plan.models[slot].slices.begin(), plan.models[slot].slices.end(),
            Slice{0, 0});
  plan.models[slot].slices[static_cast<std::size_t>(accepted)] = Slice{0, n};
}

}  // namespace

PlannerReport Hetero2PipePlanner::settle(PipelinePlan plan,
                                         std::vector<bool> high) const {
  for (ModelPlan& mp : plan.models) mp.high_contention = high[mp.model_index];
  // The seeded boundaries were DES-aligned for a nearby window, so they are
  // near-good; a static re-alignment sometimes helps and sometimes hurts
  // (the wavefront objective undervalues whole-model parallelism), so two
  // DES evaluations arbitrate it.  One DES-scored tail sweep then polishes
  // the winner: ≤ m·K candidates, most pruned by the solo-work bound.
  // The arbitration's DES score of the plan it keeps seeds the sweep, which
  // would otherwise score that plan again.
  int layers_stolen = 0;
  const PlanScorer des = des_scorer();
  double score = std::numeric_limits<double>::quiet_NaN();
  if (opts_.work_stealing && !plan.models.empty()) {
    PipelinePlan aligned = plan;
    WorkStealingOptions ws;
    ws.tail_optimization = opts_.tail_optimization;
    const int moves = vertical_align(aligned, *eval_, ws);
    const double aligned_score = des(aligned);
    score = des(plan);
    if (aligned_score + 1e-9 < score) {
      plan = std::move(aligned);
      score = aligned_score;
      layers_stolen = moves;
    }
  }
  if (opts_.tail_optimization && !plan.models.empty()) {
    optimize_tail(plan, *eval_, des, nullptr, score);
  }

  // The seeded order keeps the seed's mitigation; report it as is.
  MitigationResult mitigation;
  mitigation.high = std::move(high);
  std::vector<bool> in_order;
  for (const ModelPlan& mp : plan.models) {
    mitigation.order.push_back(mp.model_index);
    in_order.push_back(mp.high_contention);
  }
  mitigation.fully_mitigated = !has_window_violation(in_order, plan.num_stages);
  return report_for(std::move(plan), std::move(mitigation), layers_stolen);
}

std::optional<PlannerReport> Hetero2PipePlanner::plan_warm(
    const exec::CompiledPlan& seed) const {
  obs::Span span("planner.plan_warm");
  span.arg("models", static_cast<double>(eval_->num_models()));

  const std::size_t K =
      opts_.num_stages ? opts_.num_stages : eval_->soc().num_processors();
  if (seed.num_stages != K) return std::nullopt;
  const std::optional<PipelinePlan> grid = decode_seed(seed);
  if (!grid) return std::nullopt;
  const SlotMatch match = match_slots(seed, *eval_);
  if (match.removed > 1 || match.added.size() > 1) return std::nullopt;

  // Inherit the seed's boundaries and order for every matched model.
  const std::size_t m = eval_->num_models();
  PipelinePlan plan;
  plan.num_stages = K;
  plan.models.reserve(m);
  std::size_t removed_slot = seed.num_models;  // position in the new plan
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    if (match.model_of_slot[slot] == m) {  // the removed model's slot
      removed_slot = plan.models.size();
      continue;
    }
    ModelPlan mp = grid->models[slot];
    mp.model_index = match.model_of_slot[slot];
    if (!mp.covers(eval_->model(mp.model_index).num_layers())) {
      return std::nullopt;  // same name, different architecture
    }
    plan.models.push_back(std::move(mp));
  }

  // Warm mitigation: labels are re-fit on this window (the classifier
  // threshold is a percentile of the *window*), the inherited order keeps
  // the seed's mitigation, and the added model is placed by the Def.-4 rule
  // directly instead of re-running the LAP.
  std::vector<bool> high = classify();
  if (!match.added.empty()) {
    const std::size_t idx = match.added.front();
    ModelPlan fresh;
    fresh.model_index = idx;
    fresh.slices = horizontal_slices(*eval_, idx, K);

    // Placement: a substitution takes the removed model's slot, keeping the
    // seed's mitigated order structure intact; a pure addition appends.  If
    // that position puts an H model inside another H's contention window
    // (Def. 4), fall back to the latest feasible position — appending as
    // the paper's "no sufficient L" residual case when none is.
    std::size_t pos =
        removed_slot <= plan.models.size() ? removed_slot : plan.models.size();
    if (opts_.contention_mitigation && high[idx]) {
      std::vector<bool> labels;
      for (const ModelPlan& mp : plan.models) labels.push_back(high[mp.model_index]);
      const auto feasible_at = [&](std::size_t p) {
        std::vector<bool> candidate = labels;
        candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(p), true);
        return !has_window_violation(candidate, K);
      };
      if (!feasible_at(pos)) {
        pos = plan.models.size();
        for (std::size_t back = 0; back <= labels.size(); ++back) {
          const std::size_t p = labels.size() - back;
          if (feasible_at(p)) {
            pos = p;
            break;
          }
        }
      }
    }
    plan.models.insert(plan.models.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(fresh));
    if (opts_.work_stealing || opts_.tail_optimization) {
      audition_collapses(plan, *eval_, pos);
    }
  }
  return settle(std::move(plan), std::move(high));
}

std::optional<PlannerReport> Hetero2PipePlanner::plan_degraded(
    const exec::CompiledPlan& seed,
    const std::vector<std::size_t>& kept_procs) const {
  obs::Span span("planner.plan_degraded");
  span.arg("kept_procs", static_cast<double>(kept_procs.size()));

  const std::size_t K =
      opts_.num_stages ? opts_.num_stages : eval_->soc().num_processors();
  // seed.num_stages == K is the identity projection: every processor
  // survived but the environment moved (a degraded shared bus, a thermal
  // bucket change) and the boundaries re-settle against this evaluator's
  // cost tables.
  if (K == 0 || kept_procs.size() != K || seed.num_stages < K) {
    return std::nullopt;
  }
  for (std::size_t k = 0; k < K; ++k) {
    if (kept_procs[k] >= seed.num_stages) return std::nullopt;
    if (k > 0 && kept_procs[k] <= kept_procs[k - 1]) return std::nullopt;
  }
  const std::optional<PipelinePlan> grid = decode_seed(seed);
  if (!grid) return std::nullopt;
  // The window is unchanged — only the hardware shrank — so the model
  // multiset must match this evaluator's exactly.
  const SlotMatch match = match_slots(seed, *eval_);
  if (match.removed != 0 || !match.added.empty()) return std::nullopt;

  std::vector<bool> kept(seed.num_stages, false);
  for (const std::size_t p : kept_procs) kept[p] = true;

  // Project every model's slicing onto the surviving stages.  A model's
  // slices partition its layer chain in stage order, so a dropped stage's
  // range merges contiguously into the previous surviving stage's range —
  // or is carried forward into the first surviving stage when the drop
  // precedes every survivor.
  PipelinePlan plan;
  plan.num_stages = K;
  plan.models.reserve(seed.num_models);
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    ModelPlan deg;
    deg.model_index = match.model_of_slot[slot];
    deg.slices.assign(K, Slice{0, 0});
    std::ptrdiff_t j = -1;        // degraded stage of the last kept healthy stage
    bool carry = false;           // dropped layers awaiting a home
    Slice carried{0, 0};
    for (std::size_t k = 0; k < seed.num_stages; ++k) {
      if (kept[k]) ++j;
      const Slice r = grid->models[slot].slices[k];
      if (r.empty()) continue;
      if (kept[k]) {
        Slice& cell = deg.slices[static_cast<std::size_t>(j)];
        cell = r;
        if (carry) {
          cell.begin = std::min(cell.begin, carried.begin);
          cell.end = std::max(cell.end, carried.end);
          carry = false;
        }
      } else if (j >= 0) {
        Slice& cell = deg.slices[static_cast<std::size_t>(j)];
        if (cell.empty()) {
          cell = r;
        } else {
          cell.end = std::max(cell.end, r.end);
        }
      } else if (carry) {
        carried.begin = std::min(carried.begin, r.begin);
        carried.end = std::max(carried.end, r.end);
      } else {
        carry = true;
        carried = r;
      }
    }
    if (carry) {
      // Nothing survived after the carried range: give it to stage 0.
      Slice& cell = deg.slices.front();
      if (cell.empty()) {
        cell = carried;
      } else {
        cell.begin = std::min(cell.begin, carried.begin);
        cell.end = std::max(cell.end, carried.end);
      }
    }
    const std::size_t n = eval_->model(deg.model_index).num_layers();
    if (!deg.covers(n)) return std::nullopt;  // same name, different arch
    boundaries_to_slices(deg, slices_to_boundaries(deg, n));  // canonical form
    plan.models.push_back(std::move(deg));
  }

  // The degraded evaluator's cost tables — and thus the classifier's
  // percentile — see only survivors.  The merge concentrated the dropped
  // stage's work onto one survivor, so unlike plan_warm the static
  // re-alignment in settle is usually needed.
  return settle(std::move(plan), classify());
}

}  // namespace h2p
