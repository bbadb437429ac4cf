#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "contention/classifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"

namespace h2p {
namespace {

std::vector<double> intensities_of(const StaticEvaluator& eval) {
  std::vector<double> intensities;
  intensities.reserve(eval.num_models());
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    intensities.push_back(eval.model_intensity(i));
  }
  return intensities;
}

}  // namespace

PlannerReport Hetero2PipePlanner::plan() const {
  obs::Span plan_span("planner.plan_cold");
  plan_span.arg("models", static_cast<double>(eval_->num_models()));

  const std::size_t K =
      opts_.num_stages ? opts_.num_stages : eval_->soc().num_processors();

  // Step 1 — horizontal: independent Algorithm-1 slicings.
  PipelinePlan pipeline = [&] {
    obs::Span span("planner.horizontal");
    return horizontal_plan(*eval_, K);
  }();

  // Step 2a — contention mitigation (Algorithm 2).
  MitigationResult mitigation;
  {
    obs::Span span("planner.mitigation");
    if (opts_.contention_mitigation) {
      mitigation = mitigate_contention(intensities_of(*eval_), K,
                                       opts_.classifier_percentile);
    } else {
      mitigation.order.resize(eval_->num_models());
      std::iota(mitigation.order.begin(), mitigation.order.end(), std::size_t{0});
      mitigation.high = classify();
    }
  }

  // Stamp H/L labels on the horizontal plans.
  for (ModelPlan& mp : pipeline.models) {
    mp.high_contention = mitigation.high[mp.model_index];
  }

  // Step 2b — vertical alignment by work stealing (Algorithm 3) + tail,
  // applied to the mitigated order.  The LAP reordering minimizes
  // displacement, not makespan, so the planner keeps whichever of
  // {original, mitigated} order evaluates better after alignment.
  // The local-search passes score candidates with the discrete-event
  // simulator: the static wavefront objective undervalues whole-model
  // parallelism (a collapsed model overlaps neighbouring columns in
  // reality), and the DES on a handful of tasks is cheap.
  const PlanScorer des = des_scorer();

  // Each branch carries out its tail sweep's final score, which is the
  // score `des` would give the branch plan; a branch re-scores only
  // when no sweep ran, and only if the comparison needs it.
  struct Branch {
    PipelinePlan plan;
    double score = std::numeric_limits<double>::quiet_NaN();  // NaN: no sweep
  };
  std::uint64_t branch_calls = 0;
  const auto branch_score = [&](Branch& b) {
    if (std::isnan(b.score)) {
      b.score = des(b.plan);
      ++branch_calls;
    }
    return b.score;
  };
  auto finalize = [&](const std::vector<std::size_t>& order, int* moves) {
    Branch b;
    b.plan.num_stages = K;
    b.plan.models.reserve(pipeline.models.size());
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
      b.plan.models.push_back(pipeline.models[order[slot]]);
    }
    if (opts_.work_stealing) {
      WorkStealingOptions ws;
      ws.tail_optimization = opts_.tail_optimization;
      *moves = vertical_align(b.plan, *eval_, ws, des, &b.score);
    } else if (opts_.tail_optimization) {
      optimize_tail(b.plan, *eval_, des, &b.score);
    }
    return b;
  };

  int layers_stolen = 0;
  Branch best = finalize(mitigation.order, &layers_stolen);
  if (opts_.contention_mitigation && mitigation.relocations > 0) {
    std::vector<std::size_t> identity(pipeline.models.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    int identity_moves = 0;
    Branch original = finalize(identity, &identity_moves);
    if (branch_score(original) + 1e-9 < branch_score(best)) {
      best = std::move(original);
      layers_stolen = identity_moves;
    }
  }
  static obs::Counter& c_branch_calls =
      obs::Registry::global().counter("planner.score_calls.branch");
  c_branch_calls.inc(branch_calls);
  return report_for(std::move(best.plan), std::move(mitigation), layers_stolen);
}

std::vector<bool> Hetero2PipePlanner::classify() const {
  const std::vector<double> intensities = intensities_of(*eval_);
  ContentionClassifier classifier(opts_.classifier_percentile);
  classifier.fit(intensities);
  return classifier.classify(intensities);
}

PlanScorer Hetero2PipePlanner::des_scorer() const {
  return [this](const PipelinePlan& p) {
    // simulate_plan_makespan lowers straight into a thread-local SoA
    // TaskTable and reuses a thread-local SimScratch: allocation-free per
    // candidate after warm-up (the tail sweep scores hundreds per window).
    double score = simulate_plan_makespan(p, *eval_);
    // Constraint (6): a layout whose concurrent residents overflow free
    // memory would swap on a real device ("substantial performance
    // slowdown", §VI-D) — penalize it so the local search prefers
    // feasible layouts whenever one is reachable.
    if (!eval_->satisfies_memory(p)) score *= 1.5;
    return score;
  };
}

PlannerReport Hetero2PipePlanner::report_for(PipelinePlan plan,
                                             MitigationResult mitigation,
                                             int layers_stolen) const {
  PlannerReport report;
  const StaticEvaluator::StaticSummary summary =
      eval_->summarize(plan, /*with_contention=*/true);
  report.static_makespan_ms = summary.makespan_ms;
  report.static_bubble_ms = summary.bubble_ms;
  report.memory_ok = eval_->satisfies_memory(plan);
  report.layers_stolen = layers_stolen;
  report.mitigation = std::move(mitigation);
  report.plan = std::move(plan);
  return report;
}

}  // namespace h2p
