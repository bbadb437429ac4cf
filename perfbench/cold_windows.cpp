// cold_windows: a stream of distinct windows, each planned from scratch on
// the calling thread with no pool, no plan cache and no online loop:
// StaticEvaluator -> Hetero2PipePlanner::plan() -> exec::compile -> DES.
// One window in eight is a DAG window planned with GraphPlanner.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>

#include "baselines/exhaustive.h"
#include "core/graph_planner.h"
#include "core/mitigation.h"
#include "core/planner.h"
#include "core/work_stealing.h"
#include "exec/compiled_plan.h"
#include "models/model_zoo.h"
#include "modeled.h"
#include "sim/pipeline_sim.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using h2p::exec::CompiledPlan;

/// Windows in the generated stream; the timed loop cycles over them.
constexpr std::size_t kWindows = 1200;
/// Every kDagEvery-th window is a DAG window.
constexpr std::size_t kDagEvery = 8;
/// Per-request latency objective for slo_miss_ratio (all requests of a
/// window arrive at 0).
constexpr double kDeadlineMs = 400.0;
/// An anchor (common.h) is timed before every kAnchorEvery-th window.
constexpr std::size_t kAnchorEvery = 100;
/// Windows planned once during set-up.
constexpr std::size_t kWarmUpWindows = 27;
/// Windows of at most this many models get the exhaustive-search reference.
constexpr std::size_t kExhaustiveMaxModels = 5;

struct ColdWindow {
  std::size_t soc = 0;
  bool dag = false;
  std::vector<std::size_t> ids;  // ModelId or GraphId values
};

struct ColdContext {
  std::vector<h2p::Model> models;       // evaluation zoo, indexed by ModelId
  std::vector<h2p::GraphModel> graphs;  // DAG zoo, indexed by GraphId
  std::vector<h2p::Soc> socs;           // Kirin990, SD778G, SD870
  std::vector<ColdWindow> windows;

  [[nodiscard]] std::vector<const h2p::Model*> chain(const ColdWindow& w) const {
    std::vector<const h2p::Model*> out;
    for (std::size_t id : w.ids) out.push_back(&models[id]);
    return out;
  }
  [[nodiscard]] std::vector<const h2p::GraphModel*> dag(const ColdWindow& w) const {
    std::vector<const h2p::GraphModel*> out;
    for (std::size_t id : w.ids) out.push_back(&graphs[id]);
    return out;
  }
};

/// One window planned and simulated.
struct Served {
  double plan_us = 0.0;  // evaluator + plan + compile
  double loop_us = 0.0;  // ... + DES
  CompiledPlan compiled;
  h2p::Timeline timeline;
  bool dag_accepted = false;
  std::vector<std::size_t> layers_of_slot;  // expected layer count per slot
};

std::unique_ptr<ColdContext> make_context(std::uint64_t seed) {
  auto ctx = std::make_unique<ColdContext>();
  for (h2p::ModelId id : h2p::all_model_ids()) {
    ctx->models.push_back(h2p::build_model(id));
  }
  for (h2p::GraphId id : h2p::all_graph_ids()) {
    ctx->graphs.push_back(h2p::build_graph_model(id));
  }
  ctx->socs = {h2p::Soc::kirin990(), h2p::Soc::snapdragon778g(),
               h2p::Soc::snapdragon870()};
  // SoC and chain window size are stratified (every (SoC, size) pair recurs
  // every 27 windows).  Models are dealt from shuffled decks holding every
  // zoo model once, so each is equally frequent and the seed only decides
  // which windows get which.
  h2p::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc01d);
  std::vector<std::size_t> model_deck, graph_deck;
  const auto deal = [&rng](std::vector<std::size_t>& deck, std::size_t size) {
    if (deck.empty()) {
      for (std::size_t id = 0; id < size; ++id) deck.push_back(id);
      rng.shuffle(deck);
    }
    const std::size_t id = deck.back();
    deck.pop_back();
    return id;
  };
  for (std::size_t w = 0; w < kWindows; ++w) {
    ColdWindow win;
    win.soc = w % ctx->socs.size();
    win.dag = w % kDagEvery == kDagEvery - 1;
    const std::size_t count = win.dag ? 1 + rng.index(6) : 4 + (w / 3) % 9;
    for (std::size_t i = 0; i < count; ++i) {
      win.ids.push_back(win.dag ? deal(graph_deck, ctx->graphs.size())
                                : deal(model_deck, ctx->models.size()));
    }
    ctx->windows.push_back(std::move(win));
  }
  // Warm-up: fault in the planner's thread-local scratch and the allocator
  // with the chain windows among the first 27 (24 of the 27 (SoC, size)
  // pairs).
  for (std::size_t w = 0; w < kWarmUpWindows; ++w) {
    const ColdWindow& win = ctx->windows[w];
    if (win.dag) continue;
    const h2p::StaticEvaluator eval(ctx->socs[win.soc], ctx->chain(win));
    (void)h2p_makespan_ms(eval);
  }
  return ctx;
}

Served serve(const ColdContext& ctx, const ColdWindow& win) {
  Served s;
  const h2p::Soc& soc = ctx.socs[win.soc];
  const Clock::time_point t0 = Clock::now();
  if (win.dag) {
    const h2p::GraphPlanner planner(soc, ctx.dag(win));
    h2p::GraphPlannerReport report = planner.plan();
    s.plan_us = us_since(t0);
    s.compiled = std::move(report.compiled);
    s.dag_accepted = report.dag_accepted;
    s.timeline = simulate_compiled(s.compiled, soc);
    s.loop_us = us_since(t0);
    for (std::size_t slot = 0; slot < s.compiled.num_models; ++slot) {
      s.layers_of_slot.push_back(
          planner.evaluator().model(s.compiled.original_index[slot]).num_layers());
    }
    return s;
  }
  const h2p::StaticEvaluator eval(soc, ctx.chain(win));
  const h2p::PlannerReport report = h2p::Hetero2PipePlanner(eval).plan();
  s.compiled = h2p::exec::compile(report.plan, eval);
  s.plan_us = us_since(t0);
  s.timeline = simulate_compiled(s.compiled, soc);
  s.loop_us = us_since(t0);
  for (std::size_t slot = 0; slot < s.compiled.num_models; ++slot) {
    s.layers_of_slot.push_back(
        eval.model(s.compiled.original_index[slot]).num_layers());
  }
  return s;
}

/// The compiled slices of every slot tile its model's layers exactly once.
bool covers_each_layer_once(const Served& s) {
  const CompiledPlan& cp = s.compiled;
  if (cp.num_models != s.layers_of_slot.size()) return false;
  std::vector<std::vector<h2p::Slice>> ranges(cp.num_models);
  for (const h2p::exec::ScheduledSlice& sl : cp.slices) {
    if (sl.model_idx >= cp.num_models || sl.layers.empty()) return false;
    ranges[sl.model_idx].push_back(sl.layers);
  }
  for (std::size_t slot = 0; slot < cp.num_models; ++slot) {
    auto& r = ranges[slot];
    std::sort(r.begin(), r.end(),
              [](const h2p::Slice& a, const h2p::Slice& b) { return a.begin < b.begin; });
    std::size_t next = 0;
    for (const h2p::Slice& sl : r) {
      if (sl.begin != next) return false;
      next = sl.end;
    }
    if (next != s.layers_of_slot[slot]) return false;
  }
  return true;
}

/// Completion time of every slot (requests arrive at 0).
std::vector<double> slot_finish_ms(const h2p::Timeline& tl) {
  std::vector<double> finish(tl.num_models, 0.0);
  for (const h2p::TaskRecord& t : tl.tasks) {
    if (t.model_idx >= finish.size()) finish.resize(t.model_idx + 1, 0.0);
    finish[t.model_idx] = std::max(finish[t.model_idx], t.end_ms);
  }
  return finish;
}

/// A served window's makespan is finite and its slices tile every model.
void check_served(const Served& s, std::size_t w, RunResult& res) {
  const double makespan = s.timeline.makespan_ms();
  res.check(std::isfinite(makespan) && makespan > 0.0,
            "window " + std::to_string(w) + ": makespan not finite");
  res.check(covers_each_layer_once(s),
            "window " + std::to_string(w) + ": slices do not cover each layer once");
}

// ---- step-by-step replay of Hetero2PipePlanner::plan() ----------------------

/// Host time of each layer of one replayed window, in microseconds.
struct LayerTimes {
  double total = 0.0;  // evaluator build .. compile, as plan_ms measures it
  double cost_tables = 0.0;
  double horizontal = 0.0;
  double mitigation = 0.0;
  double align = 0.0;           // both finalize branches, scoring included
  double score_in_align = 0.0;  // nested DES scoring inside `align`
  double score = 0.0;           // every DES scoring call
  double report = 0.0;          // static makespan / bubble / memory of the result
  double compile = 0.0;
  std::size_t score_calls = 0;
  int relocations = 0;
  int branches = 0;
  int layers_stolen = 0;
};

/// Replays plan() with the planner's own building blocks and a scorer
/// identical to the planner's (DES makespan, x1.5 when memory is violated)
/// that counts and times every call.  Must compile to the same plan as
/// plan().
void replay_plan(const h2p::Soc& soc, const std::vector<const h2p::Model*>& models,
                 LayerTimes& t, CompiledPlan& compiled) {
  const h2p::PlannerOptions opts;
  Clock::time_point mark = Clock::now();
  const Clock::time_point t0 = mark;
  const auto lap = [&mark](double& slot) {
    const Clock::time_point now = Clock::now();
    slot += std::chrono::duration<double, std::micro>(now - mark).count();
    mark = now;
  };

  const h2p::StaticEvaluator eval(soc, models);
  lap(t.cost_tables);
  const std::size_t K = soc.num_processors();
  h2p::PipelinePlan pipeline = h2p::horizontal_plan(eval, K, nullptr);
  lap(t.horizontal);

  std::vector<double> intensities;
  for (std::size_t i = 0; i < eval.num_models(); ++i) {
    intensities.push_back(eval.model_intensity(i));
  }
  h2p::MitigationResult mitigation =
      h2p::mitigate_contention(intensities, K, opts.classifier_percentile);
  for (h2p::ModelPlan& mp : pipeline.models) {
    mp.high_contention = mitigation.high[mp.model_index];
  }
  t.relocations += mitigation.relocations;
  lap(t.mitigation);

  const h2p::PlanScorer scorer = [&](const h2p::PipelinePlan& p) {
    const Clock::time_point s0 = Clock::now();
    double score = h2p::simulate_plan_makespan(p, eval);
    if (!eval.satisfies_memory(p)) score *= 1.5;
    t.score += us_since(s0);
    ++t.score_calls;
    return score;
  };
  const auto finalize = [&](const std::vector<std::size_t>& order, int* moves) {
    const double score_before = t.score;
    const Clock::time_point a0 = Clock::now();
    h2p::PipelinePlan candidate;
    candidate.num_stages = K;
    for (std::size_t idx : order) candidate.models.push_back(pipeline.models[idx]);
    h2p::WorkStealingOptions ws;
    ws.tail_optimization = opts.tail_optimization;
    *moves = h2p::vertical_align(candidate, eval, ws, scorer, nullptr);
    t.align += us_since(a0);
    t.score_in_align += t.score - score_before;
    ++t.branches;
    return candidate;
  };

  const bool try_identity = mitigation.relocations > 0;
  std::vector<std::size_t> identity(pipeline.models.size());
  std::iota(identity.begin(), identity.end(), 0);
  int moves[2] = {0, 0};
  h2p::PipelinePlan best = finalize(mitigation.order, &moves[0]);
  int stolen = moves[0];
  if (try_identity) {
    h2p::PipelinePlan other = finalize(identity, &moves[1]);
    if (scorer(other) + 1e-9 < scorer(best)) {
      best = std::move(other);
      stolen = moves[1];
    }
  }
  t.layers_stolen += stolen;
  mark = Clock::now();

  (void)eval.makespan_ms(best, true);
  (void)eval.total_bubble_ms(best, true);
  (void)eval.satisfies_memory(best);
  lap(t.report);

  compiled = h2p::exec::compile(best, eval);
  lap(t.compile);
  t.total += us_since(t0);
}

void dump_windows(const ColdContext& ctx, const std::string& dir) {
  h2p::Json list = h2p::Json::array();
  for (const ColdWindow& w : ctx.windows) {
    h2p::Json j = h2p::Json::object();
    j["soc"] = h2p::Json::string(ctx.socs[w.soc].name());
    j["kind"] = h2p::Json::string(w.dag ? "dag" : "chain");
    h2p::Json names = h2p::Json::array();
    for (std::size_t id : w.ids) {
      names.push_back(h2p::Json::string(
          w.dag ? ctx.graphs[id].name() : ctx.models[id].name()));
    }
    j["models"] = names;
    list.push_back(j);
  }
  std::ofstream(dir + "/cold_windows.json") << list.dump() << "\n";
}

// ---- untimed modeled outcomes ----------------------------------------------

void add_modeled_metrics(const ColdContext& ctx,
                         const std::vector<double>& h2p_ms, RunResult& res,
                         std::vector<double>& latencies) {
  std::vector<WindowOutcome> outcomes;
  double makespan_sum = 0.0;
  for (std::size_t w = 0; w < ctx.windows.size(); ++w) {
    const ColdWindow& win = ctx.windows[w];
    if (win.dag) continue;
    const h2p::StaticEvaluator eval(ctx.socs[win.soc], ctx.chain(win));
    WindowOutcome o;
    o.h2p_ms = h2p_ms[w];
    model_baselines(eval, o);
    if (win.ids.size() <= kExhaustiveMaxModels) {
      o.exhaustive_ms = h2p::exhaustive_search(eval).makespan_ms;
    }
    res.check(std::isfinite(o.mnn_ms) && std::isfinite(o.band_ms) &&
                  std::isfinite(o.noct_ms),
              "window " + std::to_string(w) + ": baseline makespan not finite");
    outcomes.push_back(o);
    makespan_sum += o.h2p_ms;
  }
  const ModeledSummary m = summarize_outcomes(outcomes);
  std::size_t late = 0;
  for (double l : latencies) late += l > kDeadlineMs ? 1 : 0;
  res.add("modeled_makespan_ms_mean",
          makespan_sum / static_cast<double>(outcomes.size()), "ms");
  res.add("speedup_vs_mnn", m.speedup_vs_mnn, "x");
  res.add("speedup_vs_band", m.speedup_vs_band, "x");
  res.add("speedup_vs_noct", m.speedup_vs_noct, "x");
  res.add("makespan_vs_exhaustive_pct", 100.0 + m.gap_to_exhaustive_pct, "%");
  res.add("request_latency_ms_p50", pct(latencies, 0.5), "ms");
  res.add("request_latency_ms_p99", pct(latencies, 0.99), "ms");
  res.add("slo_miss_ratio",
          static_cast<double>(late) / static_cast<double>(latencies.size()),
          "ratio");
}

}  // namespace

RunResult run_cold_windows(const RunOptions& opts) {
  RunResult res;
  double setup_s = 0.0;
  const std::unique_ptr<ColdContext> ctx = timed_setup(
      kSetupReps, [&] { return make_context(opts.seed); }, &setup_s);
  if (!opts.dump_dir.empty()) dump_windows(*ctx, opts.dump_dir);
  const std::size_t W = ctx->windows.size();

  // Windows are planned in whole passes until the budget is spent.  A pass
  // is one block of host-time statistics, scaled by the anchors timed
  // during it; the first pass's outputs are checked.
  BestOfBlocks best;
  std::vector<double> anchors, all_anchors;
  std::vector<double> plan_us, loop_us;  // untraced, current pass
  std::vector<double> traced_us;         // replayed, current pass
  const auto end_of_pass = [&](std::size_t i) {
    if ((i + 1) % W != 0) return;
    const double scale = anchor_scale(anchors);
    all_anchors.insert(all_anchors.end(), anchors.begin(), anchors.end());
    double loop_total = 0.0;
    for (double u : loop_us) loop_total += u;
    best.offer("plan_p50", pct(plan_us, 0.5) * scale);
    best.offer("plan_p99", pct(plan_us, 0.99) * scale);
    best.offer("loop_p50", pct(loop_us, 0.5) * scale);
    best.offer("loop_p90", pct(loop_us, 0.9) * scale);
    best.offer("loop_mean", loop_total / static_cast<double>(loop_us.size()) * scale);
    if (!traced_us.empty()) best.offer("traced_p50", pct(traced_us, 0.5) * scale);
    anchors.clear();
    plan_us.clear();
    loop_us.clear();
    traced_us.clear();
  };
  const Clock::time_point start = Clock::now();
  const auto more = [&](std::size_t i) {
    return i % W != 0 || i == 0 || seconds_since(start) < opts.seconds;
  };

  if (!opts.trace) {
    std::vector<double> first_makespan(W, 0.0), latencies;
    for (std::size_t i = 0; more(i); ++i) {
      const std::size_t w = i % W;
      if (w % kAnchorEvery == 0) anchors.push_back(anchor_us());
      ++res.attempted;
      try {
        const Served s = serve(*ctx, ctx->windows[w]);
        plan_us.push_back(s.plan_us);
        loop_us.push_back(s.loop_us);
        if (i < W) {
          check_served(s, w, res);
          first_makespan[w] = s.timeline.makespan_ms();
          if (!ctx->windows[w].dag) {
            for (double f : slot_finish_ms(s.timeline)) latencies.push_back(f);
          }
        }
      } catch (const std::exception& e) {
        res.check(false, "window " + std::to_string(w) + " threw: " + e.what());
      }
      end_of_pass(i);
    }
    // Read before the untimed modeled work below, which is not serving.
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.anchor_us = median(all_anchors);
    res.add("setup_s", setup_s, "s");
    res.add("plan_ms_p50", best.best("plan_p50") / 1e3, "ms");
    res.add("plan_ms_p99", best.best("plan_p99") / 1e3, "ms");
    res.add("plans_per_s", 1e6 / best.best("loop_mean"), "1/s");
    res.add("loop_us_per_window_p50", best.best("loop_p50"), "us");
    res.add("loop_us_per_window_p90", best.best("loop_p90"), "us");
    add_modeled_metrics(*ctx, first_makespan, res, latencies);
    return res;
  }

  // Traced run: every window is served untraced (the overhead baseline)
  // and then replayed step by step with per-layer timers; the replay must
  // compile to the same slices and DES makespan as plan().  `chain_plan_us`
  // sums the untraced evaluator + plan() + compile time of the replayed
  // windows, which the layer times must cover.
  LayerTimes lt;
  double chain_total = 0.0, chain_plan_us = 0.0, graph_us = 0.0, simulate_us = 0.0;
  std::size_t chain_windows = 0, dag_windows = 0, dag_accepted = 0;
  std::size_t slices = 0, tasks = 0;
  const std::uint64_t logs_before = log_records();
  for (std::size_t i = 0; more(i); ++i) {
    const std::size_t w = i % W;
    const ColdWindow& win = ctx->windows[w];
    const h2p::Soc& soc = ctx->socs[win.soc];
    if (w % kAnchorEvery == 0) anchors.push_back(anchor_us());
    ++res.attempted;
    try {
      // Every other chain window is replayed before it is served, so
      // neither path always runs on caches the other has just warmed.
      const bool replay_first = !win.dag && i % 2 == 1;
      CompiledPlan compiled;
      double replay_us = 0.0;
      const auto replay = [&] {
        const double before = lt.total;
        replay_plan(soc, ctx->chain(win), lt, compiled);
        replay_us = lt.total - before;
      };
      if (replay_first) replay();
      const Served s = serve(*ctx, win);
      plan_us.push_back(s.plan_us);
      loop_us.push_back(s.loop_us);
      if (i < W) check_served(s, w, res);
      if (win.dag) {
        const Served again = serve(*ctx, win);
        traced_us.push_back(again.plan_us);
        graph_us += again.plan_us;
        ++dag_windows;
        dag_accepted += again.dag_accepted ? 1 : 0;
      } else {
        if (!replay_first) replay();
        traced_us.push_back(replay_us);
        const Clock::time_point s0 = Clock::now();
        const h2p::Timeline tl = simulate_compiled(compiled, soc);
        simulate_us += us_since(s0);
        chain_total += replay_us;
        chain_plan_us += s.plan_us;
        ++chain_windows;
        slices += compiled.slices.size();
        tasks += tl.tasks.size();
        res.check(compiled.slices == s.compiled.slices &&
                      compiled.original_index == s.compiled.original_index,
                  "window " + std::to_string(w) + ": replay differs from plan()");
        res.check(tl.makespan_ms() == s.timeline.makespan_ms(),
                  "window " + std::to_string(w) + ": replay makespan differs");
      }
    } catch (const std::exception& e) {
      res.check(false, "window " + std::to_string(w) + " threw: " + e.what());
    }
    end_of_pass(i);
  }

  // Layer times are totals over the run, scaled by the run's anchors.
  res.anchor_us = median(all_anchors);
  const double n = static_cast<double>(std::max<std::size_t>(chain_windows, 1));
  const double k = anchor_scale(all_anchors);
  const double covered = lt.cost_tables + lt.horizontal + lt.mitigation +
                         (lt.align - lt.score_in_align) + lt.score + lt.report +
                         lt.compile;
  res.add("soc.cost_tables_us", lt.cost_tables * k / n, "us");
  res.add("core.horizontal_us", lt.horizontal * k / n, "us");
  res.add("core.mitigation_us", lt.mitigation * k / n, "us");
  res.add("core.mitigation_relocations", lt.relocations / n, "count");
  res.add("core.align_self_us", (lt.align - lt.score_in_align) * k / n, "us");
  res.add("core.align_branches", lt.branches / n, "count");
  res.add("core.layers_stolen", lt.layers_stolen / n, "count");
  res.add("core.report_us", lt.report * k / n, "us");
  res.add("sim.score_calls", static_cast<double>(lt.score_calls) / n, "count");
  res.add("sim.score_us",
          lt.score * k / static_cast<double>(std::max<std::size_t>(lt.score_calls, 1)),
          "us");
  res.add("sim.score_total_us", lt.score * k / n, "us");
  res.add("exec.compile_us", lt.compile * k / n, "us");
  res.add("exec.slices", static_cast<double>(slices) / n, "count");
  res.add("sim.simulate_us", simulate_us * k / n, "us");
  res.add("sim.tasks", static_cast<double>(tasks) / n, "count");
  res.add("sim.des_us", (lt.score + simulate_us) * k / n, "us");
  res.add("core.graph_plan_us",
          graph_us * k / static_cast<double>(std::max<std::size_t>(dag_windows, 1)),
          "us");
  res.add("core.dag_accepted_ratio",
          static_cast<double>(dag_accepted) /
              static_cast<double>(std::max<std::size_t>(dag_windows, 1)),
          "ratio");
  res.add("core.cold_ratio", 1.0, "ratio");
  res.add("core.cold_us", chain_total * k / n, "us");
  const double coverage = covered / std::max(chain_plan_us, 1e-9);
  res.check(coverage >= 0.95, "layer times cover only " + std::to_string(coverage) +
                                  " of the untraced plan() time");
  res.add("trace.coverage", coverage, "ratio");
  res.add("trace.overhead", best.best("traced_p50") / best.best("plan_p50"), "ratio");
  res.add("obs.log_records",
          static_cast<double>(log_records() - logs_before) /
              static_cast<double>(res.attempted),
          "count");
  return res;
}

}  // namespace perfbench
