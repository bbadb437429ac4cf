// Warm-start replanning: Hetero2PipePlanner::plan_warm.
//
// A near-miss plan-cache entry (same SoC, same knobs, model multiset within
// one add/remove/substitute — exec::PlanCache::find_near) already paid for
// the expensive parts of planning its window: the Algorithm-1 DPs, the
// mitigation ordering, and the DES-scored alignment.  For the window that
// almost repeats it, replanning from scratch re-derives nearly all of that.
// plan_warm instead inherits the seed's boundaries and order, DP-slices only
// the one model the window adds, places it into the removed model's slot
// (Def.-4 permitting), auditions its slicing with the incremental static
// scorer, and settles the final plan with two discrete-event evaluations —
// against the hundreds of DES *scorings* inside the cold planner's
// alignment and tail candidate loops, which is where cold spends its time.
#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "contention/classifier.h"
#include "core/incremental.h"
#include "core/mitigation.h"
#include "core/planner.h"
#include "core/work_stealing.h"
#include "exec/compiled_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

/// optimize_tail's candidate set for one slot — the K single-processor
/// collapses — scored incrementally and accepted only on strict improvement,
/// with the same ascending-collapse tie-breaking.
bool audition_collapses(IncrementalStaticScorer& inc, PipelinePlan& plan,
                        const StaticEvaluator& eval, std::size_t slot) {
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
  if (accepted < 0) return false;
  std::fill(plan.models[slot].slices.begin(), plan.models[slot].slices.end(),
            Slice{0, 0});
  plan.models[slot].slices[static_cast<std::size_t>(accepted)] = Slice{0, n};
  inc.apply(slot, plan.models[slot].slices);
  return true;
}

}  // namespace

std::optional<PlannerReport> Hetero2PipePlanner::plan_warm(
    const exec::CompiledPlan& seed) const {
  static obs::Counter& warm_plans =
      obs::Registry::global().counter("planner.warm_plans");
  static obs::Histogram& warm_ms =
      obs::Registry::global().histogram("planner.warm_ms");
  warm_plans.inc();
  const obs::ScopedLatency latency(warm_ms);
  obs::Span span("planner.plan_warm");
  span.arg("models", static_cast<double>(eval_->num_models()));

  const std::size_t K =
      opts_.num_stages ? opts_.num_stages : eval_->soc().num_processors();
  if (seed.num_stages != K) return std::nullopt;
  // A DAG plan can occupy one (slot, proc) cell per slice and still carry
  // fork/join edges the grid round-trip would silently drop — refuse those
  // seeds up front, not just the duplicate (slot, proc) cells
  // to_pipeline_plan throws on.
  if (!seed.chain_precedence()) return std::nullopt;

  PipelinePlan seed_plan;
  try {
    seed_plan = exec::to_pipeline_plan(seed);
  } catch (const std::exception&) {
    return std::nullopt;  // non-grid schedule; cannot seed
  }

  // Match seed slots to this window's models by name, multiset-wise:
  // duplicates pair up in (slot order, evaluator order).
  const std::size_t m = eval_->num_models();
  std::unordered_map<std::string, std::deque<std::size_t>> free_by_name;
  for (std::size_t i = 0; i < m; ++i) {
    free_by_name[eval_->model(i).name()].push_back(i);
  }
  std::vector<std::size_t> slot_match(seed.num_models, m);  // m = unmatched
  std::size_t removed = 0;
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    auto& queue = free_by_name[seed.model_names[slot]];
    if (queue.empty()) {
      ++removed;
      continue;
    }
    slot_match[slot] = queue.front();
    queue.pop_front();
  }
  std::vector<std::size_t> added;
  for (const auto& [name, queue] : free_by_name) {
    for (const std::size_t idx : queue) added.push_back(idx);
  }
  std::sort(added.begin(), added.end());
  if (removed > 1 || added.size() > 1) return std::nullopt;  // not a near miss

  // Inherit the seed's boundaries and order for every matched model.
  PipelinePlan plan;
  plan.num_stages = K;
  plan.models.reserve(m);
  std::size_t removed_slot = seed.num_models;  // position in the new plan
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    if (slot_match[slot] == m) {  // the removed model's slot
      removed_slot = plan.models.size();
      continue;
    }
    ModelPlan mp = seed_plan.models[slot];
    mp.model_index = slot_match[slot];
    if (!mp.covers(eval_->model(mp.model_index).num_layers())) {
      return std::nullopt;  // same name, different architecture
    }
    plan.models.push_back(std::move(mp));
  }

  // Warm mitigation: labels are re-fit on this window's intensities (the
  // classifier threshold is a percentile of the *window*), the inherited
  // order keeps the seed's mitigation, and the added model is placed by the
  // Def.-4 rule directly instead of re-running the LAP.
  std::vector<double> intensities;
  intensities.reserve(m);
  for (std::size_t i = 0; i < m; ++i) intensities.push_back(eval_->model_intensity(i));
  ContentionClassifier classifier(opts_.classifier_percentile);
  classifier.fit(intensities);
  std::vector<bool> high;
  high.reserve(m);
  for (const double v : intensities) high.push_back(classifier.is_high(v));
  for (ModelPlan& mp : plan.models) mp.high_contention = high[mp.model_index];

  const bool polish = opts_.work_stealing || opts_.tail_optimization;
  IncrementalStaticScorer inc(*eval_, plan);
  if (!added.empty()) {
    const std::size_t idx = added.front();
    ModelPlan fresh;
    fresh.model_index = idx;
    fresh.slices = horizontal_slices(*eval_, idx, K);
    fresh.high_contention = high[idx];

    // Placement: a substitution takes the removed model's slot, keeping the
    // seed's mitigated order structure intact; a pure addition appends.  If
    // that position puts an H model inside another H's contention window
    // (Def. 4), fall back to the latest feasible position — appending as
    // the paper's "no sufficient L" residual case when none is.
    std::size_t pos =
        removed_slot <= plan.models.size() ? removed_slot : plan.models.size();
    if (opts_.contention_mitigation && fresh.high_contention) {
      std::vector<bool> labels;
      for (const ModelPlan& mp : plan.models) labels.push_back(mp.high_contention);
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
    if (pos == plan.models.size()) {
      // Appending keeps the scorer's cached columns valid: audition the DP
      // slicing against the K single-processor collapses with O(K²) work
      // per candidate before committing the row.
      double best = inc.score_appended(idx, fresh.slices);
      std::vector<Slice> collapsed(K);
      const std::size_t n = eval_->model(idx).num_layers();
      for (std::size_t s = 0; polish && s < K; ++s) {
        std::fill(collapsed.begin(), collapsed.end(), Slice{0, 0});
        collapsed[s] = Slice{0, n};
        if (std::equal(collapsed.begin(), collapsed.end(), fresh.slices.begin(),
                       fresh.slices.end())) {
          continue;
        }
        const double score = inc.score_appended(idx, collapsed);
        if (score + 1e-9 < best) {
          best = score;
          fresh.slices = collapsed;
        }
      }
      inc.apply_appended(idx, fresh.slices);
      plan.models.push_back(std::move(fresh));
    } else {
      // Interior insertion shifts every later wavefront column; rebuild the
      // scorer once and audition through the ordinary single-row path.
      plan.models.insert(plan.models.begin() + static_cast<std::ptrdiff_t>(pos),
                         std::move(fresh));
      inc = IncrementalStaticScorer(*eval_, plan);
      if (polish) audition_collapses(inc, plan, *eval_, pos);
    }
  }

  // Final polish.  The inherited boundaries were DES-aligned for a window
  // one model away, so they are already near-good; a full static
  // re-alignment sometimes helps and sometimes hurts (the static wavefront
  // objective undervalues whole-model parallelism).  Build the statically
  // re-aligned candidate and let the discrete-event simulator arbitrate —
  // two DES *evaluations* total, against the hundreds a cold plan spends
  // scoring candidates inside its alignment and tail loops.
  int layers_stolen = 0;
  if (polish && !plan.models.empty()) {
    const PlanScorer des = [this](const PipelinePlan& p) {
      double score = simulate_plan_makespan(p, *eval_);  // thread-local SoA path
      if (!eval_->satisfies_memory(p)) score *= 1.5;  // constraint (6)
      return score;
    };
    // Two candidates, one DES evaluation each: keep the inherited
    // boundaries, or statically re-align them (greedy stealing + the
    // incremental tail sweep — cheap, but its wavefront objective
    // undervalues whole-model parallelism, so it must not win unarbitrated).
    if (opts_.work_stealing) {
      PipelinePlan aligned = plan;
      WorkStealingOptions ws;
      ws.tail_optimization = opts_.tail_optimization;
      const int moves = vertical_align(aligned, *eval_, ws);
      if (des(aligned) + 1e-9 < des(plan)) {
        plan = std::move(aligned);
        layers_stolen = moves;
      }
    }
    // One DES-scored tail sweep on the winner.  This is the only DES-in-
    // the-loop work warm does: ≤ m·K candidate scorings, most pruned by
    // the solo-work lower bound — against cold's two full DES-aligned
    // branches (alignment windows × tail sweeps, each DES-scored).
    if (opts_.tail_optimization) {
      optimize_tail(plan, *eval_, des);
    }
  }

  PlannerReport report;
  const StaticEvaluator::StaticSummary summary =
      eval_->summarize(plan, /*with_contention=*/true);
  report.static_makespan_ms = summary.makespan_ms;
  report.static_bubble_ms = summary.bubble_ms;
  report.memory_ok = eval_->satisfies_memory(plan);
  report.layers_stolen = layers_stolen;
  report.mitigation.high = std::move(high);
  for (const ModelPlan& mp : plan.models) {
    report.mitigation.order.push_back(mp.model_index);
  }
  {
    std::vector<bool> in_order;
    for (const ModelPlan& mp : plan.models) in_order.push_back(mp.high_contention);
    report.mitigation.fully_mitigated = !has_window_violation(in_order, K);
  }
  report.plan = std::move(plan);
  return report;
}

std::optional<PlannerReport> Hetero2PipePlanner::plan_degraded(
    const exec::CompiledPlan& seed,
    const std::vector<std::size_t>& kept_procs) const {
  static obs::Counter& degraded_plans =
      obs::Registry::global().counter("planner.degraded_plans");
  static obs::Histogram& degraded_ms =
      obs::Registry::global().histogram("planner.degraded_ms");
  degraded_plans.inc();
  const obs::ScopedLatency latency(degraded_ms);
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
  // Same guard as plan_warm: fork/join seeds don't survive the grid
  // round-trip the stage projection below relies on.
  if (!seed.chain_precedence()) return std::nullopt;

  PipelinePlan seed_plan;
  try {
    seed_plan = exec::to_pipeline_plan(seed);
  } catch (const std::exception&) {
    return std::nullopt;  // non-grid schedule; cannot seed
  }

  // The window is unchanged — only the hardware shrank — so the model
  // multiset must match this evaluator's exactly.
  const std::size_t m = eval_->num_models();
  if (seed.num_models != m) return std::nullopt;
  std::unordered_map<std::string, std::deque<std::size_t>> free_by_name;
  for (std::size_t i = 0; i < m; ++i) {
    free_by_name[eval_->model(i).name()].push_back(i);
  }
  std::vector<std::size_t> slot_match(seed.num_models, m);
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    auto& queue = free_by_name[seed.model_names[slot]];
    if (queue.empty()) return std::nullopt;  // multiset mismatch
    slot_match[slot] = queue.front();
    queue.pop_front();
  }

  std::vector<bool> kept(seed.num_stages, false);
  for (const std::size_t p : kept_procs) kept[p] = true;

  // Project every model's slicing onto the surviving stages.  A model's
  // slices partition its layer chain in stage order, so a dropped stage's
  // range merges contiguously into the previous surviving stage's range —
  // or is carried forward into the first surviving stage when the drop
  // precedes every survivor.
  PipelinePlan plan;
  plan.num_stages = K;
  plan.models.reserve(m);
  for (std::size_t slot = 0; slot < seed.num_models; ++slot) {
    ModelPlan deg;
    deg.model_index = slot_match[slot];
    deg.slices.assign(K, Slice{0, 0});
    std::ptrdiff_t j = -1;        // degraded stage of the last kept healthy stage
    bool carry = false;           // dropped layers awaiting a home
    Slice carried{0, 0};
    for (std::size_t k = 0; k < seed.num_stages; ++k) {
      if (kept[k]) ++j;
      const Slice r = seed_plan.models[slot].slices[k];
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

  // Labels are re-fit on the degraded evaluator's intensities (the cost
  // tables — and thus the classifier's percentile — see only survivors).
  std::vector<double> intensities;
  intensities.reserve(m);
  for (std::size_t i = 0; i < m; ++i) intensities.push_back(eval_->model_intensity(i));
  ContentionClassifier classifier(opts_.classifier_percentile);
  classifier.fit(intensities);
  std::vector<bool> high;
  high.reserve(m);
  for (const double v : intensities) high.push_back(classifier.is_high(v));
  for (ModelPlan& mp : plan.models) mp.high_contention = high[mp.model_index];

  // The merge concentrated the dropped stage's work onto one survivor, so
  // unlike plan_warm the static re-alignment is usually needed — but its
  // wavefront objective still mustn't win unarbitrated (see plan_warm).
  int layers_stolen = 0;
  const bool polish = opts_.work_stealing || opts_.tail_optimization;
  if (polish && !plan.models.empty()) {
    const PlanScorer des = [this](const PipelinePlan& p) {
      double score = simulate_plan_makespan(p, *eval_);  // thread-local SoA path
      if (!eval_->satisfies_memory(p)) score *= 1.5;  // constraint (6)
      return score;
    };
    if (opts_.work_stealing) {
      PipelinePlan aligned = plan;
      WorkStealingOptions ws;
      ws.tail_optimization = opts_.tail_optimization;
      const int moves = vertical_align(aligned, *eval_, ws);
      if (des(aligned) + 1e-9 < des(plan)) {
        plan = std::move(aligned);
        layers_stolen = moves;
      }
    }
    if (opts_.tail_optimization) {
      optimize_tail(plan, *eval_, des);
    }
  }

  PlannerReport report;
  const StaticEvaluator::StaticSummary summary =
      eval_->summarize(plan, /*with_contention=*/true);
  report.static_makespan_ms = summary.makespan_ms;
  report.static_bubble_ms = summary.bubble_ms;
  report.memory_ok = eval_->satisfies_memory(plan);
  report.layers_stolen = layers_stolen;
  report.mitigation.high = std::move(high);
  for (const ModelPlan& mp : plan.models) {
    report.mitigation.order.push_back(mp.model_index);
  }
  {
    std::vector<bool> in_order;
    for (const ModelPlan& mp : plan.models) in_order.push_back(mp.high_contention);
    report.mitigation.fully_mitigated = !has_window_violation(in_order, K);
  }
  report.plan = std::move(plan);
  return report;
}

}  // namespace h2p
