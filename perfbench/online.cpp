// online_scenes / online_weather: one long run_online stream on Kirin990 of
// recurring 4-model scenes with Poisson arrivals, served with the plan
// cache, warm start and async planning on a 2-worker pool.  The weather
// variant adds sampled correlated fault weather, the closed thermal loop and
// deadline deferral.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "baselines/exhaustive.h"
#include "core/bubbles.h"
#include "models/model_zoo.h"
#include "modeled.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using h2p::ModelId;

/// Windows of 4 requests in the stream.
constexpr std::size_t kStreamWindows = 900;
constexpr std::size_t kWindowSize = 4;
/// Mean Poisson inter-arrival gap: below saturation on Kirin990.
constexpr double kMeanGapMs = 200.0;
/// Per-request deadline: arrival + this.
constexpr double kDeadlineMs = 700.0;
/// Share of windows with one model substituted.
constexpr double kSubstituteShare = 0.25;
/// Scene popularity is Zipf-skewed with this exponent.
constexpr double kZipfExponent = 1.1;
/// Weather: one event per slot; severities uniform in [min, max], durations
/// exponential with the given mean, capped.
constexpr double kWeatherSlotMs = 1000.0;
constexpr double kMeanWeatherMs = 250.0;
constexpr double kMaxWeatherMs = 500.0;
constexpr double kMinSeverity = 0.3;
constexpr double kMaxSeverity = 0.9;
/// Thermal-loop acceleration: each modeled stream millisecond ages the RC
/// models 100 ms, so the ~3-minute stream heats and cools the die.
constexpr double kThermalTimeScale = 100.0;
/// Timed run_online calls per block of host-time statistics.
constexpr std::size_t kCallsPerBlock = 4;
/// Pool workers (the calling thread makes the third).
constexpr std::size_t kPoolThreads = 2;

struct OnlineContext {
  std::vector<h2p::Model> models;  // extended zoo, indexed by ModelId
  h2p::Soc soc = h2p::Soc::kirin990();
  std::vector<h2p::OnlineRequest> stream;
  h2p::FaultScript faults;
  std::unique_ptr<h2p::ThreadPool> pool;
  h2p::OnlineOptions options;
};

/// Recurring scenes, most popular first: the §I scene-understanding app
/// (detection, face embedding, attributes, scene encoder, caption decoder)
/// and the video-analytics example (detection + BERT + light CNNs), then
/// mixes of the remaining zoo models.  Fixed, so every seed draws from the
/// same distribution.
const std::vector<std::vector<ModelId>>& scene_catalogue() {
  using M = ModelId;
  static const std::vector<std::vector<ModelId>> scenes = {
      {M::kYOLOv4, M::kFaceNet, M::kAgeGenderNet, M::kViT},
      {M::kYOLOv4, M::kBERT, M::kMobileNetV2, M::kSqueezeNet},
      {M::kViT, M::kGPT2Decoder, M::kYOLOv4, M::kFaceNet},
      {M::kMobileNetV2, M::kSqueezeNet, M::kMobileNetV2, M::kSqueezeNet},
      {M::kYOLOv4, M::kFaceNet, M::kFaceNet, M::kAgeGenderNet},
      {M::kViT, M::kGPT2Decoder, M::kBERT, M::kMobileNetV2},
      {M::kResNet50, M::kMobileNetV2, M::kYOLOv4, M::kSqueezeNet},
      {M::kFaceNet, M::kAgeGenderNet, M::kMobileNetV2, M::kGoogLeNet},
      {M::kInceptionV4, M::kResNet50, M::kViT, M::kAlexNet},
      {M::kVGG16, M::kYOLOv4, M::kBERT, M::kGPT2Decoder},
  };
  return scenes;
}

/// Correlated fault weather over a stream of `span_ms`: one event per
/// kWeatherSlotMs slot, with the kinds, severities and durations stratified
/// (each kind equally often, severities and durations at evenly spaced
/// quantiles of their distributions) and shuffled by the seed, which also
/// jitters each event inside its slot.  Every seed sees the same climate.
std::vector<h2p::WeatherEvent> sample_weather(h2p::Rng& rng, double span_ms) {
  const auto n = static_cast<std::size_t>(span_ms / kWeatherSlotMs);
  std::vector<std::size_t> kind(n), severity(n), duration(n);
  for (std::size_t k = 0; k < n; ++k) kind[k] = severity[k] = duration[k] = k;
  rng.shuffle(kind);
  rng.shuffle(severity);
  rng.shuffle(duration);
  std::vector<h2p::WeatherEvent> weather;
  for (std::size_t k = 0; k < n; ++k) {
    const double q_sev = (static_cast<double>(severity[k]) + 0.5) / static_cast<double>(n);
    const double q_dur = (static_cast<double>(duration[k]) + 0.5) / static_cast<double>(n);
    h2p::WeatherEvent w;
    w.kind = static_cast<h2p::WeatherKind>(kind[k] % 3);
    w.severity = kMinSeverity + (kMaxSeverity - kMinSeverity) * q_sev;
    w.duration_ms = std::min(-kMeanWeatherMs * std::log(1.0 - q_dur), kMaxWeatherMs);
    w.begin_ms = static_cast<double>(k) * kWeatherSlotMs +
                 rng.uniform(0.0, kWeatherSlotMs - w.duration_ms);
    weather.push_back(w);
  }
  return weather;
}

std::unique_ptr<OnlineContext> make_context(std::uint64_t seed, bool weather) {
  auto ctx = std::make_unique<OnlineContext>();
  for (ModelId id : h2p::extended_model_ids()) {
    ctx->models.push_back(h2p::build_model(id));
  }
  const auto& ids = h2p::extended_model_ids();
  h2p::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x0411e);

  // Scene counts follow the Zipf popularity exactly (largest remainders)
  // and exactly kSubstituteShare of the windows substitute one model, each
  // zoo model equally often, so every seed serves the same mix; the seed
  // picks the window order, which windows substitute and where, and the
  // arrival times.  A scene's requests always arrive in catalogue order.
  const std::vector<std::vector<ModelId>>& scenes = scene_catalogue();
  std::vector<double> share;
  double total = 0.0;
  for (std::size_t r = 0; r < scenes.size(); ++r) {
    share.push_back(1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent));
    total += share.back();
  }
  // The stream opens with every scene once, in catalogue order, so the plan
  // each scene first enters the cache with (and the warm starts seeded from
  // it) does not depend on the seed.
  const std::size_t body = kStreamWindows - scenes.size();
  std::vector<std::size_t> scene_of_window;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t r = 0; r < scenes.size(); ++r) {
    const double exact = static_cast<double>(body) * share[r] / total;
    scene_of_window.insert(scene_of_window.end(), static_cast<std::size_t>(exact), r);
    remainders.push_back({exact - std::floor(exact), r});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; scene_of_window.size() < body; ++k) {
    scene_of_window.push_back(remainders[k].second);
  }
  rng.shuffle(scene_of_window);
  // Substitutes cycle through the extended zoo; kNone marks no substitution.
  const std::size_t kNone = ids.size();
  std::vector<std::size_t> substitute(body, kNone);
  const auto substituted = static_cast<std::size_t>(kSubstituteShare * body);
  for (std::size_t k = 0; k < substituted; ++k) substitute[k] = k % ids.size();
  rng.shuffle(substitute);
  std::vector<std::size_t> prologue(scenes.size());
  std::iota(prologue.begin(), prologue.end(), 0);
  scene_of_window.insert(scene_of_window.begin(), prologue.begin(), prologue.end());
  substitute.insert(substitute.begin(), scenes.size(), kNone);

  double t = 0.0;
  for (std::size_t w = 0; w < kStreamWindows; ++w) {
    std::vector<ModelId> window = scenes[scene_of_window[w]];
    if (substitute[w] != kNone) {
      window[rng.index(window.size())] = ids[substitute[w]];
    }
    for (ModelId id : window) {
      t += -kMeanGapMs * std::log(1.0 - rng.uniform());
      h2p::OnlineRequest req;
      req.model = &ctx->models[static_cast<std::size_t>(id)];
      req.arrival_ms = t;
      req.deadline_ms = t + kDeadlineMs;
      ctx->stream.push_back(req);
    }
  }

  ctx->pool = std::make_unique<h2p::ThreadPool>(kPoolThreads);
  h2p::OnlineOptions& o = ctx->options;
  o.replan_window = kWindowSize;
  o.use_plan_cache = true;
  o.warm_start = true;
  o.async_planning = true;
  o.pool = ctx->pool.get();
  if (weather) {
    ctx->faults = h2p::FaultScript::with_weather(ctx->soc, sample_weather(rng, t));
    o.faults = &ctx->faults;
    o.thermal_loop = true;
    o.thermal.time_scale = kThermalTimeScale;
    o.deadline_policy = h2p::DeadlinePolicy::kDefer;
  }
  // Warm-up: pool threads, thread-local scratch, allocator.
  (void)h2p::run_online(ctx->soc, ctx->stream, o);
  return ctx;
}

void dump_inputs(const OnlineContext& ctx, const std::string& dir,
                 const std::string& name) {
  h2p::Json list = h2p::Json::array();
  for (std::size_t r = 0; r < ctx.stream.size(); ++r) {
    h2p::Json j = h2p::Json::object();
    j["model"] = h2p::Json::string(ctx.stream[r].model->name());
    j["arrival_ms"] = h2p::Json::number(ctx.stream[r].arrival_ms);
    j["deadline_ms"] = h2p::Json::number(ctx.stream[r].deadline_ms);
    list.push_back(j);
  }
  std::ofstream(dir + "/" + name + "_stream.json") << list.dump() << "\n";
  if (ctx.options.faults != nullptr) {
    std::ofstream(dir + "/" + name + "_faults.json")
        << h2p::fault_script_to_json(ctx.faults).dump() << "\n";
  }
}

/// Whole-run invariants of one served stream.
void check_result(const OnlineContext& ctx, const h2p::OnlineResult& r,
                  RunResult& res) {
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < ctx.stream.size(); ++i) {
    if (r.admitted[i]) {
      ++admitted;
      res.check(std::isfinite(r.completion_ms[i]) && r.completion_ms[i] >= 0.0,
                "request " + std::to_string(i) + " admitted but not completed");
    } else {
      res.check(r.completion_ms[i] < 0.0,
                "request " + std::to_string(i) + " shed but completed");
    }
  }
  res.check(admitted + r.shed_requests == ctx.stream.size(),
            "admitted + shed != attempted");
  if (ctx.options.faults != nullptr) {
    const auto violation =
        h2p::verify_timeline_against_faults(r.timeline, ctx.faults);
    res.check(!violation.has_value(),
              "timeline violates the fault script: " + violation.value_or(""));
  }
}

/// Per executed window: its requests (stream order) recovered by pairing
/// each slot's DES finish with its request's arrival + completion.
struct Recovered {
  std::vector<std::vector<std::size_t>> requests_of_window;
  std::vector<double> wait_ms;  // first start - arrival, per admitted request
  std::vector<double> exec_ms;  // finish - first start
};

Recovered recover_windows(const OnlineContext& ctx, const h2p::OnlineResult& r,
                          RunResult& res) {
  Recovered out;
  const std::size_t slots = r.timeline.num_models;
  std::vector<double> first(slots, std::numeric_limits<double>::infinity());
  std::vector<double> finish(slots, 0.0);
  std::vector<std::size_t> window_of(slots, 0);
  for (const h2p::TaskRecord& t : r.timeline.tasks) {
    first[t.model_idx] = std::min(first[t.model_idx], t.start_ms);
    finish[t.model_idx] = std::max(finish[t.model_idx], t.end_ms);
  }
  for (const h2p::obs::SliceRecord& rec : r.slice_records) {
    window_of[rec.model_idx] = rec.window;
  }
  std::vector<std::size_t> slot_order(slots), req_order;
  std::iota(slot_order.begin(), slot_order.end(), 0);
  std::sort(slot_order.begin(), slot_order.end(),
            [&](std::size_t a, std::size_t b) { return finish[a] < finish[b]; });
  std::vector<double> req_finish(ctx.stream.size(), 0.0);
  for (std::size_t i = 0; i < ctx.stream.size(); ++i) {
    if (!r.admitted[i]) continue;
    req_finish[i] = ctx.stream[i].arrival_ms + r.completion_ms[i];
    req_order.push_back(i);
  }
  std::sort(req_order.begin(), req_order.end(), [&](std::size_t a, std::size_t b) {
    return req_finish[a] < req_finish[b];
  });
  res.check(req_order.size() == slots, "executed slots != admitted requests");
  out.requests_of_window.resize(r.windows.size());
  for (std::size_t k = 0; k < std::min(slots, req_order.size()); ++k) {
    const std::size_t s = slot_order[k];
    const std::size_t i = req_order[k];
    res.check(std::fabs(finish[s] - req_finish[i]) < 1e-6,
              "slot/request pairing mismatch");
    if (window_of[s] < out.requests_of_window.size()) {
      out.requests_of_window[window_of[s]].push_back(i);
    }
    out.wait_ms.push_back(first[s] - ctx.stream[i].arrival_ms);
    out.exec_ms.push_back(finish[s] - first[s]);
  }
  for (auto& reqs : out.requests_of_window) std::sort(reqs.begin(), reqs.end());
  return out;
}

/// True when `makespan_ms` is the DES makespan of the cold plan of some
/// ordering of `models` on `view`.  The window's own order comes first; other
/// orders are needed because a prefetched cold plan is keyed on the model
/// multiset and may have been computed for an earlier window's order.
bool is_cold_plan_of(const h2p::Soc& view, std::vector<const h2p::Model*> models,
                     double makespan_ms) {
  if (h2p_makespan_ms(h2p::StaticEvaluator(view, models)) == makespan_ms) return true;
  const auto by_name = [](const h2p::Model* a, const h2p::Model* b) {
    return a->name() < b->name();
  };
  std::sort(models.begin(), models.end(), by_name);
  do {
    if (h2p_makespan_ms(h2p::StaticEvaluator(view, models)) == makespan_ms) return true;
  } while (std::next_permutation(models.begin(), models.end(), by_name));
  return false;
}

/// Modeled outcomes of the served plans: per executed window, the served
/// plan's isolated DES makespan (drift tracking's prediction) against the
/// baselines on the SoC view the window planned under.  A window served by
/// a cold replan must match the benchmark's own cold plan on that view.
void add_modeled_metrics(const OnlineContext& ctx, const h2p::OnlineResult& r,
                         const Recovered& rec, RunResult& res) {
  std::map<std::string, double> exhaustive_memo;
  std::vector<WindowOutcome> outcomes;
  double makespan_sum = 0.0;
  for (std::size_t w = 0; w < r.windows.size(); ++w) {
    const h2p::WindowStats& ws = r.windows[w];
    const int bus_centi = static_cast<int>(std::lround(ws.bus_factor * 100.0));
    const h2p::Soc view =
        serving_view(ctx.soc, ws.avail_mask, ws.thermal_bucket, bus_centi);
    std::vector<const h2p::Model*> models;
    std::vector<std::string> names;
    for (std::size_t i : rec.requests_of_window[w]) {
      models.push_back(ctx.stream[i].model);
      names.push_back(ctx.stream[i].model->name());
    }
    if (models.empty()) {
      res.check(false, "window " + std::to_string(w) + " has no requests");
      continue;
    }
    const h2p::StaticEvaluator eval(view, models);
    WindowOutcome o;
    o.h2p_ms = ws.predicted_makespan_ms;
    model_baselines(eval, o);
    // exhaustive_search ranges over every order, so it is memoized on the
    // view and the model multiset.
    std::sort(names.begin(), names.end());
    std::string key = std::to_string(ws.avail_mask) + "/" +
                      std::to_string(ws.thermal_bucket) + "/" +
                      std::to_string(bus_centi);
    for (const std::string& n : names) key += "/" + n;
    auto it = exhaustive_memo.find(key);
    if (it == exhaustive_memo.end()) {
      it = exhaustive_memo.emplace(key, h2p::exhaustive_search(eval).makespan_ms).first;
    }
    o.exhaustive_ms = it->second;
    if (ws.source == h2p::WindowSource::kColdReplan) {
      res.check(is_cold_plan_of(view, models, ws.predicted_makespan_ms),
                "window " + std::to_string(w) +
                    ": served cold plan differs from a cold plan on its view");
    }
    outcomes.push_back(o);
    makespan_sum += o.h2p_ms;
  }
  const ModeledSummary m = summarize_outcomes(outcomes);

  std::vector<double> latencies;
  for (std::size_t i = 0; i < ctx.stream.size(); ++i) {
    if (r.admitted[i]) latencies.push_back(r.completion_ms[i]);
  }
  res.add("modeled_makespan_ms_mean",
          makespan_sum / static_cast<double>(std::max<std::size_t>(outcomes.size(), 1)),
          "ms");
  res.add("speedup_vs_mnn", m.speedup_vs_mnn, "x");
  res.add("speedup_vs_band", m.speedup_vs_band, "x");
  res.add("speedup_vs_noct", m.speedup_vs_noct, "x");
  res.add("makespan_vs_exhaustive_pct", 100.0 + m.gap_to_exhaustive_pct, "%");
  res.add("request_latency_ms_p50", pct(latencies, 0.5), "ms");
  res.add("request_latency_ms_p99", pct(latencies, 0.99), "ms");
  res.add("slo_miss_ratio",
          static_cast<double>(r.shed_requests + r.deadline_misses) /
              static_cast<double>(ctx.stream.size()),
          "ratio");
}

RunResult run_online(const RunOptions& opts, bool weather) {
  RunResult res;
  double setup_s = 0.0;
  const std::unique_ptr<OnlineContext> ctx = timed_setup(
      kSetupReps, [&] { return make_context(opts.seed, weather); }, &setup_s);
  if (!opts.dump_dir.empty()) {
    dump_inputs(*ctx, opts.dump_dir, weather ? "online_weather" : "online_scenes");
  }

  h2p::obs::Registry& reg = h2p::obs::Registry::global();
  h2p::obs::Tracer& tracer = h2p::obs::Tracer::global();
  reg.reset();
  tracer.clear();

  // Serve the stream repeatedly for the budget, in whole blocks of
  // kCallsPerBlock calls; every call must reproduce the first call's
  // completions exactly.  Each call's host time per window is scaled by the
  // anchors timed around it.  A traced run alternates untraced calls (the
  // overhead baseline) with calls that have the obs Tracer and Registry on,
  // whose spans are folded per call.
  std::vector<double> reference;  // completion_ms of the first call
  h2p::OnlineResult first;
  BestOfBlocks best;
  std::vector<double> untraced_us, traced_us;  // current block, per-window us
  std::vector<double> all_anchors, traced_anchors;
  double traced_wall_us = 0.0;
  std::size_t traced_windows = 0, traced_calls = 0;
  std::uint64_t log_per_call = 0;
  SpanTotals spans;
  const Clock::time_point start = Clock::now();
  const std::size_t block = opts.trace ? 2 * kCallsPerBlock : kCallsPerBlock;
  for (std::size_t call = 0;
       call % block != 0 || call == 0 || seconds_since(start) < opts.seconds; ++call) {
    const bool traced = opts.trace && call % 2 == 1;
    res.attempted += ctx->stream.size();
    try {
      const double anchor_before = anchor_us();
      reg.set_enabled(traced);
      tracer.set_enabled(traced);
      const std::uint64_t logs_before = log_records();
      const Clock::time_point t0 = Clock::now();
      h2p::OnlineResult r = h2p::run_online(ctx->soc, ctx->stream, ctx->options);
      const double us = us_since(t0);
      tracer.set_enabled(false);
      reg.set_enabled(false);
      const double anchor_after = anchor_us();
      all_anchors.insert(all_anchors.end(), {anchor_before, anchor_after});
      const double per_window = us * anchor_scale({anchor_before, anchor_after}) /
                                static_cast<double>(std::max<std::size_t>(r.windows.size(), 1));
      if (traced) {
        spans.drain_global_tracer();
        traced_us.push_back(per_window);
        traced_anchors.insert(traced_anchors.end(), {anchor_before, anchor_after});
        traced_wall_us += us;
        traced_windows += r.windows.size();
        ++traced_calls;
      } else {
        untraced_us.push_back(per_window);
      }
      if (reference.empty()) {
        log_per_call = log_records() - logs_before;
        check_result(*ctx, r, res);
        reference = r.completion_ms;
        first = std::move(r);
      } else {
        res.check(r.completion_ms == reference,
                  "two runs of one seed gave different completions");
      }
    } catch (const std::exception& e) {
      res.check(false, std::string("run_online threw: ") + e.what());
    }
    if ((call + 1) % block == 0 && !untraced_us.empty()) {
      best.offer("p50", pct(untraced_us, 0.5));
      best.offer("p90", pct(untraced_us, 0.9));
      best.offer("p99", pct(untraced_us, 0.99));
      if (!traced_us.empty()) best.offer("traced_p50", pct(traced_us, 0.5));
      untraced_us.clear();
      traced_us.clear();
    }
  }
  res.anchor_us = median(all_anchors);
  // Peak RSS of serving, read before the drift-tracked run and the modeled
  // baselines below.
  const double serving_rss_mb = peak_rss_mb();

  // Untimed modeled run: drift tracking records each window's served-plan
  // prediction and is strictly observational, so completions must match.
  h2p::OnlineOptions modeled = ctx->options;
  modeled.drift_tracking = true;
  const h2p::OnlineResult dr = h2p::run_online(ctx->soc, ctx->stream, modeled);
  res.check(dr.completion_ms == reference,
            "drift-tracked run gave different completions");
  const Recovered rec = recover_windows(*ctx, dr, res);

  if (!opts.trace) {
    res.add("setup_s", setup_s, "s");
    // Host time per served window, best block.  The loop has no per-window
    // timer outside the traced run, so plan_ms and plans_per_s read the same
    // per-call samples as loop_us_per_window.  Each sample already averages
    // a whole stream, so plans_per_s takes the median call: a block mean
    // mostly measures the noisiest call in it.
    res.add("plan_ms_p50", best.best("p50") / 1e3, "ms");
    res.add("plan_ms_p99", best.best("p99") / 1e3, "ms");
    res.add("plans_per_s", 1e6 / best.best("p50"), "1/s");
    res.add("loop_us_per_window_p50", best.best("p50"), "us");
    res.add("loop_us_per_window_p90", best.best("p90"), "us");
    add_modeled_metrics(*ctx, dr, rec, res);
    res.add("peak_rss_mb", serving_rss_mb, "MB");
    return res;
  }

  // Span times are totals over the traced calls, scaled by their anchors.
  const double k = anchor_scale(traced_anchors);
  const double calls = static_cast<double>(std::max<std::size_t>(traced_calls, 1));
  const double windows = static_cast<double>(std::max<std::size_t>(traced_windows, 1));
  const auto per_window = [&](const char* name) {
    return spans.get(name).incl_us * k / windows;
  };
  const auto per_call = [&](const char* counter) {
    return static_cast<double>(reg.counter(counter).value()) / calls;
  };
  const auto mean_of = [&](const char* name) {
    const SpanTotals::Entry& e = spans.get(name);
    return e.count == 0 ? 0.0 : e.incl_us * k / static_cast<double>(e.count);
  };

  const h2p::OnlineResult& r = first;
  const double w1 = static_cast<double>(std::max<std::size_t>(r.windows.size(), 1));
  const std::size_t tasks = r.timeline.tasks.size();
  double backoff = 0.0;
  for (const h2p::WindowStats& ws : r.windows) backoff += ws.backoff_wait_ms;
  const int cold = r.replans - r.warm_hits - r.degraded_hits;

  res.add("soc.cost_tables_us", per_window("planner.cost_tables"), "us");
  res.add("core.horizontal_us", per_window("planner.horizontal"), "us");
  res.add("core.mitigation_us", per_window("planner.mitigation"), "us");
  res.add("core.align_self_us",
          (spans.get("planner.plan_cold").self_us +
           spans.get("planner.tail_sweep").self_us) * k / windows,
          "us");
  res.add("sim.score_calls", static_cast<double>(spans.des_nested_calls) / windows,
          "count");
  res.add("sim.score_us",
          spans.des_nested_calls == 0
              ? 0.0
              : spans.des_nested_us * k / static_cast<double>(spans.des_nested_calls),
          "us");
  res.add("sim.score_total_us", spans.des_nested_us * k / windows, "us");
  res.add("exec.slices", static_cast<double>(tasks) / w1, "count");
  res.add("sim.simulate_us", spans.des_top_us * k / windows, "us");
  res.add("sim.tasks", static_cast<double>(tasks) / w1, "count");
  res.add("sim.des_us", (spans.des_top_us + spans.des_nested_us) * k / windows, "us");
  res.add("des.migrations", per_call("des.migrations"), "count");
  res.add("exec.cache_hit_ratio", r.cache_hits / w1, "ratio");
  res.add("exec.cache_evictions", per_call("plan_cache.evictions"), "count");
  res.add("core.warm_ratio", r.warm_hits / w1, "ratio");
  res.add("core.warm_us", mean_of("planner.plan_warm"), "us");
  res.add("core.degraded_ratio", r.degraded_hits / w1, "ratio");
  res.add("core.degraded_us", mean_of("planner.plan_degraded"), "us");
  res.add("core.cold_ratio", cold / w1, "ratio");
  res.add("core.cold_us", mean_of("planner.plan_cold"), "us");
  res.add("online.plan_us", per_window("online.plan"), "us");
  res.add("online.prefetch_pump_us", per_window("online.prefetch_pump"), "us");
  res.add("online.consume_us", per_window("online.consume"), "us");
  res.add("online.probe_us", per_window("online.probe"), "us");
  const double submitted = spans.get("online.prefetch_pump").submitted;
  res.add("online.prefetch_useful_ratio",
          submitted > 0.0
              ? static_cast<double>(spans.get("online.prefetch_wait").count) / submitted
              : 0.0,
          "ratio");
  res.add("online.prefetch_discarded", per_call("online.prefetch_discarded"), "count");
  res.add("pool.jobs", per_call("pool.jobs"), "count");
  res.add("pool.help_runs", per_call("pool.help_runs"), "count");
  res.add("online.wait_ms_p50", pct(rec.wait_ms, 0.5), "ms");
  res.add("online.wait_ms_p99", pct(rec.wait_ms, 0.99), "ms");
  res.add("online.exec_ms_p50", pct(rec.exec_ms, 0.5), "ms");
  res.add("online.exec_ms_p99", pct(rec.exec_ms, 0.99), "ms");
  res.add("online.planning_charged_ms", r.planning_charged_ms / w1, "ms");
  res.add("online.planning_hidden_ms", r.planning_hidden_ms / w1, "ms");
  res.add("online.shed", static_cast<double>(r.shed_requests), "count");
  res.add("online.deferred", static_cast<double>(r.deferred_requests), "count");
  res.add("online.backoff_wait_ms", backoff, "ms");
  res.add("online.bucket_transitions", static_cast<double>(r.bucket_transitions),
          "count");
  res.add("online.bus_degraded_windows", static_cast<double>(r.bus_degraded_windows),
          "count");
  const double top_level = spans.get("online.probe").incl_us +
                           spans.get("online.plan").incl_us +
                           spans.get("online.consume").incl_us +
                           spans.get("online.prefetch_pump").incl_us +
                           spans.des_top_us;
  res.add("trace.coverage", top_level / std::max(traced_wall_us, 1e-9), "ratio");
  res.add("trace.overhead", best.best("traced_p50") / best.best("p50"), "ratio");
  res.add("obs.log_records", static_cast<double>(log_per_call), "count");
  return res;
}

}  // namespace

RunResult run_online_scenes(const RunOptions& opts) { return run_online(opts, false); }
RunResult run_online_weather(const RunOptions& opts) { return run_online(opts, true); }

}  // namespace perfbench
