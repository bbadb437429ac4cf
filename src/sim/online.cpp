#include "sim/online.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "exec/compiled_plan.h"
#include "exec/plan_cache.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"
#include "soc/cost_model.h"
#include "soc/thermal.h"
#include "util/thread_pool.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The full cold path for one window: cost tables, two-step planner,
/// lowering.  Deterministic in (soc, models, planner), so whether a window
/// is planned by a prefetch job or on the calling thread never shows in the
/// result.  `with_fallback` additionally lowers the per-slice fallback
/// cost table the fault-aware DES migrates with.
exec::CompiledPlan plan_cold(const Soc& soc,
                             const std::vector<const Model*>& models,
                             const PlannerOptions& planner, bool with_fallback) {
  const StaticEvaluator eval(soc, models);
  const PlannerReport report = Hetero2PipePlanner(eval, planner).plan();
  exec::CompiledPlan cp = exec::compile(report.plan, eval);
  if (with_fallback) exec::attach_fallback_costs(cp, eval);
  return cp;
}

/// The SoC as the serving loop currently believes it: the surviving
/// processors (original roofline parameters — transient slowdowns are the
/// DES's business, not the planner's), plus the map from degraded stage
/// index back to the physical processor.
struct SocView {
  Soc soc;
  std::vector<std::size_t> kept;  // degraded stage k -> full processor index
};

/// A speculative cold plan in flight, with the ordered model list its job
/// plans.  The plan-cache key names only the multiset, and the planner's
/// result depends on the order, so a window may consume the plan only when
/// its own order is this one.  Setting `cancel` makes a job that has not
/// started planning yet return an empty plan instead.
struct Prefetch {
  std::vector<const Model*> models;
  std::shared_ptr<std::atomic<bool>> cancel;
  std::future<exec::CompiledPlan> plan;
};

/// A prefetch's models by name, in its order ("M,S,M,S"): how the log
/// records name the prefetch.
std::string model_names(const std::vector<const Model*>& models) {
  std::string names;
  for (const Model* m : models) {
    if (!names.empty()) names += ',';
    names += m->name();
  }
  return names;
}

/// `bus_centi` is the observed shared-bus bandwidth fraction in percent
/// (100 = healthy): the view's bus term is scaled by it, so the planner's
/// cost tables — and the Soc fingerprint inside the plan-cache key — see
/// the degraded bus.  Quantized to centi on purpose: the cache must not
/// treat every float wiggle of the bus factor as a new environment.
SocView make_view(const Soc& full, std::uint64_t mask, int bus_centi) {
  std::vector<Processor> procs;
  std::vector<std::size_t> kept;
  for (std::size_t p = 0; p < full.num_processors(); ++p) {
    if ((mask >> p) & 1ull) {
      procs.push_back(full.processor(p));
      kept.push_back(p);
    }
  }
  const double bus_scale = static_cast<double>(bus_centi) / 100.0;
  return SocView{Soc(full.name(), std::move(procs),
                     full.bus_bw_gbps() * bus_scale, full.mem_capacity_bytes(),
                     full.available_bytes(), full.mem_states()),
                 std::move(kept)};
}

}  // namespace

OnlineResult run_online(const Soc& soc, const std::vector<OnlineRequest>& stream,
                        const OnlineOptions& options) {
  // Fail fast on option combinations that previously degraded silently —
  // a misconfigured serving loop should never limp along unnoticed.
  if (options.replan_window == 0) {
    throw std::invalid_argument("run_online: replan_window must be >= 1");
  }
  if (options.warm_start && !options.use_plan_cache) {
    throw std::invalid_argument(
        "run_online: warm_start requires use_plan_cache (the warm seed lives "
        "in the plan cache)");
  }
  if (options.async_planning && options.pool == nullptr) {
    throw std::invalid_argument(
        "run_online: async_planning requires a worker pool");
  }
  if (options.async_planning && options.prefetch_depth == 0) {
    throw std::invalid_argument(
        "run_online: async_planning with prefetch_depth 0 prefetches "
        "nothing; disable async_planning instead");
  }

  // Prefetches drained unused: no OnlineResult field returns this count.
  static obs::Counter& c_discarded =
      obs::Registry::global().counter("online.prefetch_discarded");
  obs::Log& log = obs::Log::global();
  obs::Tracer& tracer = obs::Tracer::global();

  OnlineResult result;
  const std::size_t P = soc.num_processors();
  const std::size_t window_size = options.replan_window;
  const bool caching = options.use_plan_cache;
  const bool warm = options.warm_start;
  const bool async = options.async_planning;
  const FaultScript* faults = options.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;
  const std::uint64_t full_mask = P >= 64 ? ~0ull : ((1ull << P) - 1);
  const FaultToleranceOptions& ft = options.fault_tolerance;

  exec::PlanCache cache;

  result.admitted.assign(stream.size(), false);
  result.completion_ms.assign(stream.size(), -1.0);
  result.declared_dead_ms.assign(P, -1.0);

  // Requests not yet assigned to an executed window, in serving order.
  // Without deferrals this is consumed in fixed chunks of `window_size`,
  // reproducing the static pre-split exactly; a deferred request re-enters
  // at the front of the next window.
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < stream.size(); ++i) pending.push_back(i);
  std::vector<std::size_t> defer_count(stream.size(), 0);

  // The SoC each thermal bucket stands for, built once per bucket reached.
  // thermally_derated_bucket is a pure function of (soc, bucket), so a
  // bucket revisited later sees the identical base — and identical plans.
  std::unordered_map<std::size_t, Soc> bucket_socs;
  const auto base_soc = [&](std::size_t bucket) -> const Soc& {
    if (bucket == 0) return soc;
    auto it = bucket_socs.find(bucket);
    if (it == bucket_socs.end()) {
      it = bucket_socs.emplace(bucket, thermally_derated_bucket(soc, bucket))
               .first;
    }
    return it->second;
  };

  // Planner-facing SoC views by (availability mask, thermal bucket,
  // observed bus centi-factor), built once each.
  std::map<std::tuple<std::uint64_t, std::size_t, int>, SocView> views;
  const auto view_for = [&](std::uint64_t mask, std::size_t bucket,
                            int bus_centi) -> const SocView& {
    const auto key = std::make_tuple(mask, bucket, bus_centi);
    auto it = views.find(key);
    if (it == views.end()) {
      it = views.emplace(key, make_view(base_soc(bucket), mask, bus_centi))
               .first;
    }
    return it->second;
  };

  // DES lower bound on one request's chain: every layer must execute
  // somewhere among the surviving processors, contention and faults only
  // dilate, so completion >= sum of per-layer best solo times (the
  // solo-work argument of the tail sweep's CollapseBound, per request).
  // +inf when some layer has no surviving processor at all.
  // Priced on the current bucket's *derated* SoC: a throttled chip slows
  // every layer, so admission must not promise deadlines the derated
  // hardware cannot keep.  (The shared-bus factor only dilates further, so
  // leaving it out keeps this a valid lower bound.)  The bound depends on
  // nothing but (model, mask, bucket), so each triple is priced once per
  // run.
  std::unordered_map<std::size_t, CostModel> bucket_costs;
  std::map<std::tuple<const Model*, std::uint64_t, std::size_t>, double>
      chain_bounds;
  const auto chain_lower_bound_ms = [&](const Model& model, std::uint64_t mask,
                                        std::size_t bucket) -> double {
    const auto [memo, fresh] =
        chain_bounds.try_emplace(std::make_tuple(&model, mask, bucket), 0.0);
    if (!fresh) return memo->second;
    auto it = bucket_costs.find(bucket);
    if (it == bucket_costs.end()) {
      it = bucket_costs.emplace(bucket, CostModel(base_soc(bucket))).first;
    }
    const CostModel& lb_cost = it->second;
    const Soc& priced = base_soc(bucket);
    double total = 0.0;
    for (const Layer& layer : model.layers()) {
      double best = kInf;
      for (std::size_t p = 0; p < P; ++p) {
        if (((mask >> p) & 1ull) == 0) continue;
        const Processor& proc = priced.processor(p);
        if (!proc.supports(layer.kind)) continue;
        best = std::min(best, lb_cost.layer_time_ms(layer, proc));
      }
      if (!std::isfinite(best)) return memo->second = kInf;
      total += best;
    }
    return memo->second = total;
  };

  // The thermal bucket the loop currently serves in.  Static by default;
  // with `thermal_loop` it follows the live models (with hysteresis).
  std::size_t bucket = options.thermal_bucket;

  // The key of `models` planned on the healthy SoC (full mask, clean bus)
  // in the current bucket: the seed a degraded window replans from.
  const auto healthy_key = [&](const std::vector<const Model*>& models) {
    return exec::make_key(view_for(full_mask, bucket, 100).soc, models,
                          options.planner, exec::PlanEnv{full_mask, bucket});
  };
  // Whether step 4 of the loop below, run now, would plan the window cold:
  // this mirrors its ladder (exact hit, warm start from a near miss,
  // degraded replan from the healthy plan) with non-mutating peeks, and
  // must change with it.  Optimistic where the ladder can still fall
  // through (a warm or degraded replan the planner rejects plans cold).
  const auto plans_cold = [&](const exec::PlanKey& key,
                              const std::vector<const Model*>& models,
                              std::uint64_t mask, int bus_centi) {
    if (!caching) return true;
    if (cache.peek(key) != nullptr) return false;
    if (warm && cache.peek_near(key) != nullptr) return false;
    const bool degraded = mask != full_mask || bus_centi < 100;
    return !degraded || cache.peek(healthy_key(models)) == nullptr;
  };

  // Async mode: cold plans for upcoming windows are computed speculatively
  // on the pool, keyed by the plan-cache key they were predicted under, for
  // the windows the believed environment would plan cold (`plans_cold`):
  // a window the cache will serve or seed gains nothing from a cold plan.
  // Prefetch is *best-effort and non-binding*: keys are predicted with the
  // environment of the last probe, and a prefetched plan whose key no
  // longer matches at consume time (a fault flipped the mask, a deferral
  // reshaped the window) is discarded — whether a window is served cold,
  // warm, degraded or from cache is decided at consume time from cache
  // state identical to a serial run's.  One whose key matches but whose
  // model order does not (a deferral moved a request to the front of a
  // same-multiset window) is left unconsumed.  The serving thread never
  // waits for a prefetch: a late one is cancelled and its window planned
  // inline, which gives the same plan.
  std::unordered_map<exec::PlanKey, Prefetch, exec::PlanKeyHash> inflight;
  std::vector<std::future<exec::CompiledPlan>> abandoned;  // waited at the end
  // Predicts the next `prefetch_depth` windows of `pending` under the
  // environment just probed (mask, bus factor) and the bucket the next
  // window plans in.  It runs once the current window is resolved, so the
  // cache it consults already holds that window's plan.
  const auto pump_prefetch = [&](std::uint64_t mask, int bus_centi) {
    if (!async) return;
    obs::Span span("online.prefetch_pump");
    std::size_t submitted = 0;
    const SocView& view = view_for(mask, bucket, bus_centi);
    const exec::PlanEnv env{mask, bucket};
    std::size_t offset = 0;
    for (std::size_t ahead = 0; ahead < options.prefetch_depth; ++ahead) {
      if (offset >= pending.size()) break;
      const std::size_t take = std::min(window_size, pending.size() - offset);
      std::vector<const Model*> models;
      models.reserve(take);
      for (std::size_t k = 0; k < take; ++k) {
        models.push_back(stream[pending[offset + k]].model);
      }
      offset += take;
      exec::PlanKey key =
          exec::make_key(view.soc, models, options.planner, env);
      if (inflight.count(key) != 0) continue;
      if (!plans_cold(key, models, mask, bus_centi)) continue;
      auto cancel = std::make_shared<std::atomic<bool>>(false);
      std::future<exec::CompiledPlan> plan =
          options.pool->submit([view_soc = view.soc, models,
                                planner = options.planner,
                                hook = options.prefetch_job_hook,
                                with_fallback = faults != nullptr, cancel] {
            if (hook && !*cancel) hook();
            if (*cancel) return exec::CompiledPlan{};
            return plan_cold(view_soc, models, planner, with_fallback);
          });
      inflight.emplace(std::move(key), Prefetch{std::move(models),
                                                std::move(cancel),
                                                std::move(plan)});
      ++submitted;
    }
    span.arg("submitted", static_cast<double>(submitted));
  };

  std::vector<bool> believed_dead(P, false);
  // The whole stream's DES input, appended as windows are consumed; not the
  // thread-local DES table, which the planner's scoring calls overwrite.
  sim::TaskTable tasks;
  std::vector<double> root_arrival;  // per window, reused
  // Prediction capture: one record per appended task, predicted side filled
  // at consume time, executed side after the final simulation.  Index i of
  // this vector is row i of `tasks` — and therefore of
  // result.timeline.tasks, which the simulator indexes identically.
  std::vector<obs::SliceRecord> drift_records;
  std::vector<std::size_t> request_of_slot;
  std::vector<std::size_t> window_of_slot;
  std::vector<std::size_t> slot_base_of_window;
  std::vector<std::size_t> slot_count_of_window;
  double prev_plan_finish_ms = 0.0;

  // Closed-thermal-loop state: one RC model per processor, advanced after
  // each window by the modeled release delta at the window plan's
  // utilization.  Everything here is scalar arithmetic on modeled times, so
  // serial and async runs derive the identical bucket sequence.
  std::vector<ThermalModel> therm;
  if (options.thermal_loop) {
    therm.reserve(P);
    for (std::size_t p = 0; p < P; ++p) {
      therm.emplace_back(soc.processor(p), options.thermal.ambient_c);
    }
  }
  double last_thermal_ms = 0.0;
  // Weather onsets surface in the obs stream the first time a probe runs at
  // or after their begin (the loop observes the present, never the future).
  // A cursor walks the weather indices in (begin_ms, index) order; the
  // onsets one probe newly sees are reported in index order.
  std::vector<std::size_t> weather_order;
  if (faults != nullptr) {
    weather_order.resize(faults->weather().size());
    std::iota(weather_order.begin(), weather_order.end(), 0);
    std::stable_sort(weather_order.begin(), weather_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return faults->weather()[a].begin_ms <
                              faults->weather()[b].begin_ms;
                     });
  }
  std::size_t weather_next = 0;
  std::vector<std::size_t> onsets;

  while (!pending.empty()) {
    // ---- 1. Form the next window candidate set -------------------------
    const std::size_t take = std::min(window_size, pending.size());
    std::vector<std::size_t> cand(pending.begin(),
                                  pending.begin() + static_cast<std::ptrdiff_t>(take));
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(take));
    double win_arrival = 0.0;
    for (const std::size_t i : cand) {
      win_arrival = std::max(win_arrival, stream[i].arrival_ms);
    }

    // ---- 2. Probe processor availability at planning time --------------
    const double t0 = std::max(win_arrival, prev_plan_finish_ms);
    double t = t0;
    std::uint64_t mask = full_mask;
    {
      obs::Span probe_span("online.probe");
      if (faults != nullptr) {
        // Cheap re-probe: a processor declared dead earlier rejoins the
        // moment it reports available again.
        for (std::size_t p = 0; p < P; ++p) {
          if (believed_dead[p] && faults->available(p, t)) {
            believed_dead[p] = false;
            log.info("online.proc_rejoined", {{"proc", p}, {"t_ms", t}});
          }
        }
        // Capped exponential backoff on processors that just went dark — a
        // transient drop-out often outlasts one probe but not the whole
        // ladder.  Processors already declared dead are not waited on.
        double backoff = ft.initial_backoff_ms;
        for (std::size_t attempt = 0; attempt < ft.max_retries; ++attempt) {
          bool any_down = false;
          for (std::size_t p = 0; p < P; ++p) {
            if (!believed_dead[p] && !faults->available(p, t)) any_down = true;
          }
          if (!any_down) break;
          t += backoff;
          backoff = std::min(backoff * 2.0, ft.max_backoff_ms);
        }
        // Whatever is still dark after the ladder is declared dead: planning
        // proceeds without it (and keeps re-probing at later windows).
        for (std::size_t p = 0; p < P; ++p) {
          if (!believed_dead[p] && !faults->available(p, t)) {
            believed_dead[p] = true;
            if (result.declared_dead_ms[p] < 0.0) result.declared_dead_ms[p] = t;
            log.warn("online.proc_declared_dead", {{"proc", p}, {"t_ms", t}});
          }
        }
        mask = faults->availability_mask(t, P);
        while (mask == 0) {
          const double next = faults->next_change_after(t);
          if (!std::isfinite(next)) {
            log.error("online.all_procs_down",
                      {{"t_ms", t}, {"recoverable", false}});
            throw std::runtime_error(
                "run_online: every processor is unavailable forever");
          }
          t = next;
          mask = faults->availability_mask(t, P);
        }
      }
      probe_span.arg("mask", static_cast<double>(mask));
      probe_span.arg("backoff_wait_ms", t - t0);
    }

    // ---- 2b. Observe shared-bus and weather state at planning time ------
    int bus_centi = 100;
    if (faults != nullptr && faults->has_bus_degrade()) {
      bus_centi = static_cast<int>(std::lround(faults->bus_factor(t) * 100.0));
      bus_centi = std::clamp(bus_centi, 5, 100);
    }
    while (weather_next < weather_order.size() &&
           faults->weather()[weather_order[weather_next]].begin_ms <= t) {
      onsets.push_back(weather_order[weather_next++]);
    }
    std::sort(onsets.begin(), onsets.end());
    for (const std::size_t w : onsets) {
      const WeatherEvent& we = faults->weather()[w];
      ++result.weather_onsets;
      tracer.instant("online.weather_onset",
                     {{"weather", static_cast<double>(w)},
                      {"kind", static_cast<double>(we.kind)},
                      {"severity", we.severity}});
      log.info("online.weather_onset", {{"kind", to_string(we.kind)},
                                        {"t_ms", t},
                                        {"severity", we.severity}});
    }
    onsets.clear();

    // ---- 3. Deadline admission -----------------------------------------
    std::vector<std::size_t> admitted;
    std::vector<std::size_t> deferred;
    std::size_t shed_here = 0;
    if (options.deadline_policy == DeadlinePolicy::kNone) {
      admitted = std::move(cand);
    } else {
      for (const std::size_t i : cand) {
        const double deadline = stream[i].deadline_ms;
        if (!std::isfinite(deadline)) {
          admitted.push_back(i);
          continue;
        }
        const double start_lb = std::max(stream[i].arrival_ms, t);
        if (start_lb + chain_lower_bound_ms(*stream[i].model, mask, bucket) <=
            deadline + 1e-9) {
          admitted.push_back(i);
          continue;
        }
        // Provably late under current capacity.  Defer only when a
        // recovery could still save it: meetable on the healthy SoC (with
        // the thermal loop on, "healthy" includes a cooled-down bucket 0 —
        // waiting can also let the die cool), defer budget left.
        const std::size_t healthy_bucket = options.thermal_loop ? 0 : bucket;
        if (options.deadline_policy == DeadlinePolicy::kDefer &&
            defer_count[i] < options.max_defers &&
            start_lb + chain_lower_bound_ms(*stream[i].model, full_mask,
                                            healthy_bucket) <=
                deadline + 1e-9) {
          ++defer_count[i];
          ++result.deferred_requests;
          log.debug("online.request_deferred",
                    {{"request", i},
                     {"deadline_ms", deadline},
                     {"defers", defer_count[i]}});
          deferred.push_back(i);
          continue;
        }
        ++shed_here;
        ++result.shed_requests;
        log.debug("online.request_shed",
                  {{"request", i}, {"deadline_ms", deadline}});
      }
      for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
        pending.push_front(*it);
      }
    }
    if (admitted.empty()) {
      pump_prefetch(mask, bus_centi);
      // The whole window was shed or deferred; nothing executes, no stats
      // entry.  If we deferred hoping for a recovery, advance the modeled
      // clock to the next fault transition so the retry actually observes
      // different hardware (otherwise the defer budget alone terminates).
      if (!deferred.empty() && faults != nullptr) {
        const double next = faults->next_change_after(t);
        if (std::isfinite(next)) {
          prev_plan_finish_ms = std::max(prev_plan_finish_ms, next);
        }
      }
      continue;
    }

    std::vector<const Model*> models;
    models.reserve(admitted.size());
    for (const std::size_t i : admitted) models.push_back(stream[i].model);

    const SocView& view = view_for(mask, bucket, bus_centi);
    const exec::PlanKey key = exec::make_key(view.soc, models, options.planner,
                                             exec::PlanEnv{mask, bucket});

    WindowStats ws;
    ws.arrival_ms = win_arrival;
    ws.avail_mask = mask;
    ws.backoff_wait_ms = t - t0;
    ws.shed = shed_here;
    ws.deferred = deferred.size();
    ws.thermal_bucket = bucket;
    ws.bus_factor = static_cast<double>(bus_centi) / 100.0;
    if (bus_centi < 100) {
      ++result.bus_degraded_windows;
      tracer.instant("online.bus_degraded_window",
                     {{"window", static_cast<double>(result.windows.size())},
                      {"bus_factor", ws.bus_factor}});
    }

    // ---- 4. Resolve the window's plan ----------------------------------
    // The prefetcher predicts this ladder with `plans_cold`; keep the two
    // in step.
    exec::CompiledPlan storage;
    const exec::CompiledPlan* compiled = nullptr;
    {
    obs::Span plan_span("online.plan");
    plan_span.arg("window", static_cast<double>(result.windows.size()));
    if (caching) {
      if (const exec::CompiledPlan* hit = cache.find(key)) {
        compiled = hit;
        ws.source = WindowSource::kCacheHit;
        ++result.cache_hits;
        ws.planning_ms = options.cache_hit_overhead_ms;
      }
    }
    // Warm or degraded replan from a cached seed, compiled and cached like
    // a cold plan; `compiled` stays null without a seed or a usable one.
    const auto replan_seeded = [&](const exec::CompiledPlan* seed,
                                   WindowSource source) {
      if (seed == nullptr) return;
      const StaticEvaluator eval(view.soc, models);
      const Hetero2PipePlanner planner(eval, options.planner);
      const bool is_warm = source == WindowSource::kWarmReplan;
      std::optional<PlannerReport> report =
          is_warm ? planner.plan_warm(*seed)
                  : planner.plan_degraded(*seed, view.kept);
      if (!report) return;
      exec::CompiledPlan fresh = exec::compile(report->plan, eval);
      if (faults != nullptr) exec::attach_fallback_costs(fresh, eval);
      compiled = &cache.insert(key, std::move(fresh));
      ws.source = source;
      ++result.replans;
      ++(is_warm ? result.warm_hits : result.degraded_hits);
      ws.planning_ms = options.warm_planning_overhead_ms;
    };
    if (compiled == nullptr && warm) {
      replan_seeded(cache.find_near(key), WindowSource::kWarmReplan);
    }
    if (compiled == nullptr && caching &&
        (mask != full_mask || bus_centi < 100)) {
      // Degraded warm start: the same window planned while the SoC was
      // healthy (same thermal bucket, full mask, clean bus) seeds a cheap
      // replan on the survivors.  A pure bus degrade keeps every processor
      // (identity projection) and just re-settles the boundaries against
      // the bus-scaled cost tables.
      replan_seeded(cache.peek(healthy_key(models)),
                    WindowSource::kDegradedReplan);
    }
    if (compiled == nullptr) {
      exec::CompiledPlan fresh;
      bool resolved = false;
      // A prefetch planned for another order of this multiset is not this
      // window's plan: a serial run plans the window's own order.
      if (const auto it = inflight.find(key);
          it != inflight.end() && it->second.models == models) {
        const obs::Span wait_span("online.prefetch_wait");
        Prefetch& prefetch = it->second;
        if (prefetch.plan.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          *prefetch.cancel = true;
          abandoned.push_back(std::move(prefetch.plan));
        } else {
          // A job that threw (a planner bug, a test hook) must not take the
          // serving loop down: log it and plan the window inline.
          try {
            fresh = prefetch.plan.get();
            resolved = true;
          } catch (const std::exception& e) {
            log.warn("online.prefetch_failed",
                     {{"models", model_names(models)}, {"what", e.what()}});
          } catch (...) {
            log.warn("online.prefetch_failed",
                     {{"models", model_names(models)}});
          }
        }
        inflight.erase(it);
      }
      if (!resolved) {
        fresh = plan_cold(view.soc, models, options.planner, faults != nullptr);
      }
      ws.source = WindowSource::kColdReplan;
      ++result.replans;
      ws.planning_ms = options.planning_overhead_ms;
      if (caching) {
        compiled = &cache.insert(key, std::move(fresh));
      } else {
        storage = std::move(fresh);
        compiled = &storage;
      }
    }
    plan_span.arg("source",
                  ws.source == WindowSource::kCacheHit         ? "cache_hit"
                  : ws.source == WindowSource::kWarmReplan     ? "warm_replan"
                  : ws.source == WindowSource::kDegradedReplan ? "degraded_replan"
                                                               : "cold_replan");
    }

    // The planner is one on-device component: window w+1's invocation
    // queues behind window w's.  Its latency is charged here in full; how
    // much of it the pipeline *hides* behind still-executing earlier
    // windows is measured from the simulated timeline afterwards.
    ws.release_ms = t + ws.planning_ms;
    prev_plan_finish_ms = ws.release_ms;

    obs::Span consume_span("online.consume");
    consume_span.arg("window", static_cast<double>(result.windows.size()));
    consume_span.arg("models", static_cast<double>(compiled->num_models));

    // Bind plan slots to this window's requests by model name.  The cache
    // key is a *multiset* of names, so a permuted repeat of a window reuses
    // the plan with each slot re-bound to a same-named request; for a fresh
    // (or identically ordered) window this reproduces the plan's own
    // model_index mapping exactly.
    const std::size_t m = compiled->num_models;
    std::vector<std::size_t> window_index(m, 0);
    {
      std::vector<std::size_t> slot_order(m);
      std::iota(slot_order.begin(), slot_order.end(), 0);
      std::sort(slot_order.begin(), slot_order.end(),
                [&](std::size_t a, std::size_t b) {
                  return compiled->original_index[a] < compiled->original_index[b];
                });
      // Each slot takes the first unbound request of its name (FIFO per
      // name); the key names the same multiset, so every slot finds one.
      std::vector<bool> bound(models.size(), false);
      for (const std::size_t slot : slot_order) {
        std::size_t i = 0;
        while (bound[i] || models[i]->name() != compiled->model_names[slot]) ++i;
        bound[i] = true;
        window_index[slot] = i;
      }
    }

    // Append the window to the stream, degraded stages mapped back to
    // physical processors and each model's chain released at max(its own
    // arrival, the window's release).
    const std::size_t first_slot = request_of_slot.size();
    root_arrival.resize(m);
    for (std::size_t slot = 0; slot < m; ++slot) {
      const std::size_t request = admitted[window_index[slot]];
      request_of_slot.push_back(request);
      window_of_slot.push_back(result.windows.size());
      result.admitted[request] = true;
      root_arrival[slot] = std::max(ws.release_ms, stream[request].arrival_ms);
    }
    const std::size_t first_row = tasks.size();
    tasks.append_compiled(*compiled, root_arrival, view.kept, P);

    // ---- 5b. Record the window's own DES prediction ---------------------
    // The prediction is the plan's window-isolated, fault-free simulation —
    // exactly the timeline the planner arbitrated this plan on — offset to
    // the window's release.  The executed side, filled in after the final
    // simulation, then shows everything the per-window DES could not see:
    // cross-window pipelining, faults, bus degradation, thermal drift.
    // Post-hoc and read-only: nothing below feeds back into planning.
    if (options.drift_tracking) {
      const Timeline predicted = simulate(view.soc, *compiled);
      ws.predicted_makespan_ms = predicted.makespan_ms();
      for (std::size_t k = 0; k < compiled->slices.size(); ++k) {
        const exec::ScheduledSlice& s = compiled->slices[k];
        obs::SliceRecord rec;
        rec.window = result.windows.size();
        rec.model_idx = first_slot + s.model_idx;
        rec.seq_in_model = s.seq_in_model;
        rec.proc = view.kept[s.proc_idx];
        rec.predicted_start_ms = ws.release_ms + predicted.tasks[k].start_ms;
        rec.predicted_finish_ms = ws.release_ms + predicted.tasks[k].end_ms;
        drift_records.push_back(rec);
      }
    }

    slot_base_of_window.push_back(first_slot);
    slot_count_of_window.push_back(m);
    result.windows.push_back(ws);

    // ---- 6. Advance the closed thermal loop -----------------------------
    // The RC models integrate the modeled release delta at this window's
    // per-processor utilization (busy solo time, normalized so the
    // bottleneck processor runs flat out); the worst throttle factor then
    // derives the next window's bucket through the hysteresis band.
    if (options.thermal_loop) {
      std::vector<double> busy(P, 0.0);
      for (std::size_t k = first_row; k < tasks.size(); ++k) {
        busy[tasks.proc_idx[k]] += tasks.solo_ms[k];
      }
      double max_busy = 0.0;
      for (std::size_t p = 0; p < P; ++p) {
        max_busy = std::max(max_busy, busy[p]);
      }
      const double dt_s = (ws.release_ms - last_thermal_ms) * 1e-3 *
                          options.thermal.time_scale;
      last_thermal_ms = ws.release_ms;
      double worst = 1.0;
      for (std::size_t p = 0; p < P; ++p) {
        const double util = max_busy > 0.0 ? busy[p] / max_busy : 0.0;
        therm[p].step(dt_s, util);
        worst = std::min(worst, therm[p].throttle_factor());
      }
      const std::size_t next_bucket = std::min(
          thermal_bucket_with_hysteresis(bucket, worst,
                                         options.thermal.hysteresis),
          options.thermal.max_bucket);
      if (next_bucket != bucket) {
        ++result.bucket_transitions;
        tracer.instant("online.thermal_bucket",
                       {{"from", static_cast<double>(bucket)},
                        {"to", static_cast<double>(next_bucket)},
                        {"worst_factor", worst}});
        log.info("online.thermal_bucket_changed",
                 {{"from", bucket},
                  {"to", next_bucket},
                  {"worst_factor", worst},
                  {"t_ms", ws.release_ms}});
        bucket = next_bucket;
      }
    }

    // ---- 7. Prefetch the next windows -----------------------------------
    pump_prefetch(mask, bus_centi);
  }
  result.final_thermal_bucket = bucket;

  // Cancel every prefetch no window consumed, then wait for the jobs
  // before the state they captured goes away; their results and exceptions
  // are of no further interest.
  for (auto& [key, prefetch] : inflight) {
    *prefetch.cancel = true;
    c_discarded.inc();
    log.debug("online.prefetch_discarded",
              {{"models", model_names(prefetch.models)}});
    abandoned.push_back(std::move(prefetch.plan));
  }
  for (const std::future<exec::CompiledPlan>& plan : abandoned) plan.wait();

  SimOptions sim_options;
  sim_options.faults = faults;
  tasks.finish(P);
  result.timeline = simulate(soc, tasks, sim_options);
  // Latencies are reported per *request* (stream order), so invert the
  // slot -> request binding — it is a permutation within each window.
  const std::vector<double> finish_of_slot = result.timeline.model_finish_times();
  for (std::size_t slot = 0; slot < request_of_slot.size(); ++slot) {
    const std::size_t request = request_of_slot[slot];
    const double finish =
        slot < finish_of_slot.size() ? finish_of_slot[slot] : 0.0;
    result.completion_ms[request] = finish - stream[request].arrival_ms;
    if (std::isfinite(stream[request].deadline_ms) &&
        finish > stream[request].deadline_ms + 1e-9) {
      ++result.deadline_misses;
      ++result.windows[window_of_slot[slot]].deadline_misses;
    }
  }

  // Hidden-vs-charged split of each window's release latency.  A window's
  // lead tasks (seq 0) may have been going to wait anyway — behind earlier
  // windows still occupying their processors, or for their own request to
  // arrive.  Only the part of the release delay that opened a real gap in
  // front of a lead task is *charged* to planning; the rest was hidden
  // behind the pipeline.
  {
    std::vector<std::size_t> order(result.timeline.tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const TaskRecord& ta = result.timeline.tasks[a];
      const TaskRecord& tb = result.timeline.tasks[b];
      if (ta.proc_idx != tb.proc_idx) return ta.proc_idx < tb.proc_idx;
      if (ta.start_ms != tb.start_ms) return ta.start_ms < tb.start_ms;
      return a < b;
    });
    std::vector<double> prev_end_on_proc(result.timeline.tasks.size(), 0.0);
    std::vector<double> proc_clock(result.timeline.num_procs, 0.0);
    for (const std::size_t idx : order) {
      const TaskRecord& t = result.timeline.tasks[idx];
      prev_end_on_proc[idx] = proc_clock[t.proc_idx];
      proc_clock[t.proc_idx] = t.end_ms;
    }
    // Lead-task record per global slot.
    std::vector<std::size_t> lead_of_slot(request_of_slot.size(),
                                          result.timeline.tasks.size());
    for (std::size_t idx = 0; idx < result.timeline.tasks.size(); ++idx) {
      const TaskRecord& t = result.timeline.tasks[idx];
      if (t.seq_in_model == 0) lead_of_slot[t.model_idx] = idx;
    }
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      WindowStats& ws = result.windows[w];
      const double release_latency = ws.release_ms - ws.arrival_ms;
      const std::size_t base = slot_base_of_window[w];
      const std::size_t count = slot_count_of_window[w];
      double charged = 0.0;
      for (std::size_t slot = base; slot < base + count; ++slot) {
        const std::size_t idx = lead_of_slot[slot];
        if (idx >= result.timeline.tasks.size()) continue;
        const TaskRecord& t = result.timeline.tasks[idx];
        const double would_start = std::max(
            stream[request_of_slot[slot]].arrival_ms, prev_end_on_proc[idx]);
        const double gap = t.start_ms - would_start;
        charged = std::max(charged, std::clamp(gap, 0.0, release_latency));
      }
      ws.charged_ms = charged;
      ws.hidden_ms = release_latency - charged;
      result.planning_charged_ms += ws.charged_ms;
      result.planning_hidden_ms += ws.hidden_ms;
    }
  }

  // ---- Prediction capture: executed side --------------------------------
  if (options.drift_tracking) {
    for (std::size_t idx = 0;
         idx < drift_records.size() && idx < result.timeline.tasks.size();
         ++idx) {
      obs::SliceRecord& rec = drift_records[idx];
      const TaskRecord& exec_rec = result.timeline.tasks[idx];
      rec.executed_start_ms = exec_rec.start_ms;
      rec.executed_finish_ms = exec_rec.end_ms;
      rec.migrated = exec_rec.proc_idx != rec.proc;
    }
    result.slice_records = std::move(drift_records);
  }
  return result;
}

}  // namespace h2p
