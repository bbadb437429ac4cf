#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "contention/contention_model.h"
#include "sim/task_table.h"
#include "soc/thermal.h"
#include "util/rng.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Processor indices are bits of a 64-bit availability mask.
constexpr std::size_t kMaxProcs = 64;

void sort_unique(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSlowdown: return "slowdown";
    case FaultKind::kDropout: return "dropout";
    case FaultKind::kBusDegrade: return "bus_degrade";
  }
  return "?";
}

const char* to_string(WeatherKind kind) {
  switch (kind) {
    case WeatherKind::kThermalStorm: return "thermal_storm";
    case WeatherKind::kBackgroundBurst: return "background_burst";
    case WeatherKind::kDriverCascade: return "driver_cascade";
  }
  return "?";
}

std::vector<FaultEvent> expand_weather(const WeatherEvent& event,
                                       const Soc& soc, int weather_idx) {
  if (!(event.severity > 0.0 && event.severity <= 1.0)) {
    throw std::invalid_argument("expand_weather: severity outside (0, 1]");
  }
  if (!(event.duration_ms > 0.0) || !std::isfinite(event.duration_ms)) {
    throw std::invalid_argument("expand_weather: non-positive duration");
  }
  if (event.begin_ms < 0.0 || std::isnan(event.begin_ms)) {
    throw std::invalid_argument("expand_weather: negative or NaN begin_ms");
  }
  const std::size_t P = soc.num_processors();
  for (const std::size_t p : event.procs) {
    if (p >= P) {
      throw std::invalid_argument("expand_weather: proc index out of range");
    }
  }
  const double begin = event.begin_ms;
  const double end = begin + event.duration_ms;
  std::vector<FaultEvent> out;

  // Victim selection: an explicit `procs` override wins; otherwise derive
  // from processor kinds in index order so expansion is a pure function of
  // (event, soc).
  auto victims_of_kinds = [&](std::initializer_list<ProcKind> kinds) {
    std::vector<std::size_t> v;
    if (!event.procs.empty()) return event.procs;
    for (std::size_t p = 0; p < P; ++p) {
      for (const ProcKind k : kinds) {
        if (soc.processors()[p].kind == k) {
          v.push_back(p);
          break;
        }
      }
    }
    return v;
  };

  switch (event.kind) {
    case WeatherKind::kThermalStorm: {
      // One onset, every thermally exposed processor at once; each victim
      // throttles toward its own kind's floor, scaled by severity.
      for (const std::size_t p : victims_of_kinds(
               {ProcKind::kCpuBig, ProcKind::kCpuSmall, ProcKind::kGpu})) {
        const double floor = ThermalModel(soc.processors()[p]).min_factor();
        FaultEvent e;
        e.kind = FaultKind::kSlowdown;
        e.proc_idx = p;
        e.begin_ms = begin;
        e.end_ms = end;
        e.factor = 1.0 - event.severity * (1.0 - floor);
        e.weather_idx = weather_idx;
        out.push_back(e);
      }
      break;
    }
    case WeatherKind::kBackgroundBurst: {
      // The burst steals shared bus bandwidth from everyone...
      FaultEvent bus;
      bus.kind = FaultKind::kBusDegrade;
      bus.proc_idx = 0;  // ignored: the bus is shared
      bus.begin_ms = begin;
      bus.end_ms = end;
      bus.factor = std::max(1.0 - 0.6 * event.severity, 0.05);
      bus.weather_idx = weather_idx;
      out.push_back(bus);
      // ...and squats on the small-CPU cluster, where background work lands.
      for (const std::size_t p : victims_of_kinds({ProcKind::kCpuSmall})) {
        FaultEvent e;
        e.kind = FaultKind::kSlowdown;
        e.proc_idx = p;
        e.begin_ms = begin;
        e.end_ms = end;
        e.factor = 1.0 - 0.35 * event.severity;
        e.weather_idx = weather_idx;
        out.push_back(e);
      }
      break;
    }
    case WeatherKind::kDriverCascade: {
      // Staggered transient drop-outs with one common recovery, NPU first
      // then GPU — severity sets the cascade's reach down the victim list.
      const std::vector<std::size_t> victims =
          victims_of_kinds({ProcKind::kNpu, ProcKind::kGpu});
      if (victims.empty()) break;
      const std::size_t reach = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(event.severity * static_cast<double>(victims.size()) -
                           1e-12)));
      const double stagger = 0.15 * event.duration_ms;
      for (std::size_t i = 0; i < std::min(reach, victims.size()); ++i) {
        FaultEvent e;
        e.kind = FaultKind::kDropout;
        e.proc_idx = victims[i];
        e.begin_ms =
            std::min(begin + static_cast<double>(i) * stagger,
                     begin + 0.9 * event.duration_ms);
        e.end_ms = end;
        e.weather_idx = weather_idx;
        out.push_back(e);
      }
      break;
    }
  }
  return out;
}

FaultScript::FaultScript(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  normalize();
}

FaultScript::FaultScript(std::vector<FaultEvent> events,
                         std::vector<WeatherEvent> weather)
    : events_(std::move(events)), weather_(std::move(weather)) {
  normalize();
}

FaultScript FaultScript::with_weather(const Soc& soc,
                                      std::vector<WeatherEvent> weather,
                                      std::vector<FaultEvent> base_events) {
  std::vector<FaultEvent> events = std::move(base_events);
  for (std::size_t w = 0; w < weather.size(); ++w) {
    std::vector<FaultEvent> expanded =
        expand_weather(weather[w], soc, static_cast<int>(w));
    events.insert(events.end(), expanded.begin(), expanded.end());
  }
  return FaultScript(std::move(events), std::move(weather));
}

void FaultScript::normalize() {
  has_bus_degrade_ = false;
  for (const FaultEvent& e : events_) {
    if (e.begin_ms < 0.0 || std::isnan(e.begin_ms)) {
      throw std::invalid_argument("FaultScript: negative or NaN begin_ms");
    }
    if (!(e.end_ms > e.begin_ms)) {
      throw std::invalid_argument("FaultScript: end_ms must exceed begin_ms");
    }
    if ((e.kind == FaultKind::kSlowdown || e.kind == FaultKind::kBusDegrade) &&
        !(e.factor > 0.0 && e.factor <= 1.0)) {
      throw std::invalid_argument("FaultScript: factor outside (0, 1]");
    }
    if (e.kind == FaultKind::kBusDegrade) {
      has_bus_degrade_ = true;
    } else if (e.proc_idx >= kMaxProcs) {
      throw std::invalid_argument(
          "FaultScript: processor index must be below 64");
    }
  }
  for (const WeatherEvent& w : weather_) {
    if (w.begin_ms < 0.0 || std::isnan(w.begin_ms)) {
      throw std::invalid_argument("FaultScript: weather begin_ms invalid");
    }
    if (!(w.duration_ms > 0.0) || !std::isfinite(w.duration_ms)) {
      throw std::invalid_argument("FaultScript: weather duration invalid");
    }
    if (!(w.severity > 0.0 && w.severity <= 1.0)) {
      throw std::invalid_argument("FaultScript: weather severity outside (0, 1]");
    }
  }
  // Weather is NOT sorted: events_ reference it by index (weather_idx).
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.begin_ms != b.begin_ms) return a.begin_ms < b.begin_ms;
              if (a.proc_idx != b.proc_idx) return a.proc_idx < b.proc_idx;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });

  // Compile the segment timeline.  An event covers t exactly when
  // begin - eps <= t < end - eps, so those doubles are the cut points and
  // the fault state is constant between consecutive cuts.
  edges_.clear();
  cuts_.clear();
  slow_procs_ = 0;
  for (const FaultEvent& e : events_) {
    edges_.push_back(e.begin_ms);
    if (std::isfinite(e.end_ms)) edges_.push_back(e.end_ms);
    cuts_.push_back(e.begin_ms - kEdgeEps);
    cuts_.push_back(e.end_ms - kEdgeEps);
    if (e.kind == FaultKind::kSlowdown) {
      slow_procs_ = std::max(slow_procs_, e.proc_idx + 1);
    }
  }
  sort_unique(edges_);
  sort_unique(cuts_);
  segments_.assign(cuts_.size() + 1, Segment{});
  slow_.assign(segments_.size() * slow_procs_, 1.0);
  const auto cut_index = [this](double cut) {
    return static_cast<std::size_t>(
        std::lower_bound(cuts_.begin(), cuts_.end(), cut) - cuts_.begin());
  };
  // With cuts_[i] = begin - eps and cuts_[j] = end - eps, the event covers
  // segments i+1 .. j.  Visiting events in order multiplies every product
  // in the order a scan over events_ would.
  for (const FaultEvent& e : events_) {
    const std::size_t first = cut_index(e.begin_ms - kEdgeEps) + 1;
    const std::size_t last = cut_index(e.end_ms - kEdgeEps);
    for (std::size_t k = first; k <= last; ++k) {
      switch (e.kind) {
        case FaultKind::kSlowdown:
          slow_[k * slow_procs_ + e.proc_idx] *= e.factor;
          break;
        case FaultKind::kDropout:
          segments_[k].down |= 1ull << e.proc_idx;
          if (std::isinf(e.end_ms)) {
            segments_[k].permanent |= 1ull << e.proc_idx;
          }
          break;
        case FaultKind::kBusDegrade:
          segments_[k].bus *= e.factor;
          break;
      }
    }
  }
  for (Segment& seg : segments_) seg.bus = std::max(seg.bus, 0.05);
  for (double& f : slow_) f = std::max(f, 0.05);
}

std::size_t FaultScript::segment_index(double t_ms) const {
  // No window covers a NaN time, and none covers the last segment (past
  // every cut) either.
  if (std::isnan(t_ms)) return cuts_.size();
  return static_cast<std::size_t>(
      std::upper_bound(cuts_.begin(), cuts_.end(), t_ms) - cuts_.begin());
}

FaultScript FaultScript::sample(const Soc& soc, std::uint64_t seed,
                                const FaultSamplerOptions& options) {
  // Mix the seed so seed 0 is as good as any other.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xd1b54a32d192ed03ull);
  const std::size_t P = soc.num_processors();
  std::vector<FaultEvent> events;
  std::size_t permanent_drops = 0;
  // Processors are swept in index order and each one's events in time
  // order, so the rng consumption sequence — and thus the script — is a
  // pure function of (P, seed, options).  Weather (if enabled) is sampled
  // strictly AFTER the per-processor sweep, and a disabled feature consumes
  // no rng at all, so historical (seed, options) pairs keep reproducing
  // their historical scripts bit for bit.
  for (std::size_t p = 0; options.per_proc_faults && p < P; ++p) {
    double t = 0.0;
    while (true) {
      t += -options.mean_gap_ms * std::log(1.0 - rng.uniform(0.0, 1.0));
      if (t >= options.horizon_ms) break;
      FaultEvent e;
      e.proc_idx = p;
      e.begin_ms = t;
      if (rng.chance(options.dropout_prob)) {
        e.kind = FaultKind::kDropout;
        const bool permanent =
            rng.chance(options.permanent_prob) &&
            (!options.keep_one_alive || permanent_drops + 1 < P);
        const double outage =
            -options.mean_outage_ms * std::log(1.0 - rng.uniform(0.0, 1.0));
        e.end_ms = permanent ? kInf : t + std::max(outage, 1.0);
        if (permanent) {
          ++permanent_drops;
          events.push_back(e);
          break;  // nothing later on this processor matters
        }
      } else {
        e.kind = FaultKind::kSlowdown;
        const double span =
            -options.mean_slowdown_ms * std::log(1.0 - rng.uniform(0.0, 1.0));
        e.end_ms = t + std::max(span, 1.0);
        e.factor = rng.uniform(options.min_factor, options.max_factor);
      }
      events.push_back(e);
      t = std::max(t, std::isinf(e.end_ms) ? t : e.end_ms);
    }
  }
  std::vector<WeatherEvent> weather;
  if (options.mean_weather_gap_ms > 0.0) {
    double t = 0.0;
    while (true) {
      t += -options.mean_weather_gap_ms * std::log(1.0 - rng.uniform(0.0, 1.0));
      if (t >= options.horizon_ms) break;
      WeatherEvent w;
      w.kind = static_cast<WeatherKind>(rng.uniform_int(0, 2));
      w.begin_ms = t;
      const double span = -options.mean_weather_duration_ms *
                          std::log(1.0 - rng.uniform(0.0, 1.0));
      w.duration_ms = std::max(span, 5.0);
      w.severity = std::clamp(
          rng.uniform(options.min_severity, options.max_severity), 1e-3, 1.0);
      t = w.begin_ms + w.duration_ms;
      weather.push_back(std::move(w));
    }
  }
  if (weather.empty()) return FaultScript(std::move(events));
  return FaultScript::with_weather(soc, std::move(weather), std::move(events));
}

bool FaultScript::available(std::size_t proc, double t_ms) const {
  return !has_bit(segments_[segment_index(t_ms)].down, proc);
}

bool FaultScript::permanently_down(std::size_t proc, double t_ms) const {
  return has_bit(segments_[segment_index(t_ms)].permanent, proc);
}

double FaultScript::slowdown(std::size_t proc, double t_ms) const {
  if (proc >= slow_procs_) return 1.0;
  return slow_[segment_index(t_ms) * slow_procs_ + proc];
}

double FaultScript::bus_factor(double t_ms) const {
  return segments_[segment_index(t_ms)].bus;
}

std::uint64_t FaultScript::availability_mask(double t_ms,
                                             std::size_t num_procs) const {
  if (num_procs > kMaxProcs) {
    throw std::invalid_argument("availability_mask: more than 64 processors");
  }
  const std::uint64_t all =
      num_procs == kMaxProcs ? ~0ull : (1ull << num_procs) - 1;
  return all & ~segments_[segment_index(t_ms)].down;
}

double FaultScript::next_change_after(double t_ms) const {
  const auto it =
      std::upper_bound(edges_.begin(), edges_.end(), t_ms + kEdgeEps);
  return it == edges_.end() ? kInf : *it;
}

Json fault_script_to_json(const FaultScript& script) {
  Json events = Json::array();
  for (const FaultEvent& e : script.events()) {
    Json j = Json::object();
    j["kind"] = Json::string(to_string(e.kind));
    j["proc"] = Json::number(static_cast<double>(e.proc_idx));
    j["begin_ms"] = Json::number(e.begin_ms);
    if (std::isfinite(e.end_ms)) {
      j["end_ms"] = Json::number(e.end_ms);
    } else {
      j["end_ms"] = Json();  // null = permanent
    }
    if (e.kind != FaultKind::kDropout) j["factor"] = Json::number(e.factor);
    if (e.weather_idx >= 0) {
      j["weather"] = Json::number(static_cast<double>(e.weather_idx));
    }
    events.push_back(std::move(j));
  }
  Json out = Json::object();
  out["events"] = std::move(events);
  if (!script.weather().empty()) {
    Json weather = Json::array();
    for (const WeatherEvent& w : script.weather()) {
      Json j = Json::object();
      j["kind"] = Json::string(to_string(w.kind));
      j["begin_ms"] = Json::number(w.begin_ms);
      j["duration_ms"] = Json::number(w.duration_ms);
      j["severity"] = Json::number(w.severity);
      if (!w.procs.empty()) {
        Json procs = Json::array();
        for (const std::size_t p : w.procs) {
          procs.push_back(Json::number(static_cast<double>(p)));
        }
        j["procs"] = std::move(procs);
      }
      weather.push_back(std::move(j));
    }
    out["weather"] = std::move(weather);
  }
  return out;
}

FaultScript fault_script_from_json(const Json& json) {
  // Weather first: events' "weather" fields must index it.
  std::vector<WeatherEvent> weather;
  if (json.contains("weather")) {
    const Json& list_w = json.at("weather");
    for (std::size_t i = 0; i < list_w.size(); ++i) {
      const Json& j = list_w.at(i);
      WeatherEvent w;
      const std::string& kind = j.at("kind").as_string();
      if (kind == "thermal_storm") {
        w.kind = WeatherKind::kThermalStorm;
      } else if (kind == "background_burst") {
        w.kind = WeatherKind::kBackgroundBurst;
      } else if (kind == "driver_cascade") {
        w.kind = WeatherKind::kDriverCascade;
      } else {
        throw std::runtime_error("fault script: unknown weather kind '" +
                                 kind + "'");
      }
      w.begin_ms = j.at("begin_ms").as_number();
      w.duration_ms = j.at("duration_ms").as_number();
      if (j.contains("severity")) w.severity = j.at("severity").as_number();
      if (j.contains("procs")) {
        const Json& procs = j.at("procs");
        for (std::size_t p = 0; p < procs.size(); ++p) {
          w.procs.push_back(json_index(procs.at(p),
                                       static_cast<double>(kMaxProcs),
                                       "fault script: weather " + std::to_string(i),
                                       "procs"));
        }
      }
      weather.push_back(std::move(w));
    }
  }
  std::vector<FaultEvent> events;
  const Json& list = json.at("events");
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Json& j = list.at(i);
    FaultEvent e;
    const std::string& kind = j.at("kind").as_string();
    if (kind == "slowdown") {
      e.kind = FaultKind::kSlowdown;
    } else if (kind == "dropout") {
      e.kind = FaultKind::kDropout;
    } else if (kind == "bus_degrade") {
      e.kind = FaultKind::kBusDegrade;
    } else {
      throw std::runtime_error("fault script: unknown kind '" + kind + "'");
    }
    if (j.contains("proc")) {
      e.proc_idx = json_index(j.at("proc"), static_cast<double>(kMaxProcs),
                              "fault script: event " + std::to_string(i), "proc");
    }
    e.begin_ms = j.at("begin_ms").as_number();
    e.end_ms = kInf;
    if (j.contains("end_ms") && !j.at("end_ms").is_null()) {
      const double end = j.at("end_ms").as_number();
      if (std::isfinite(end)) e.end_ms = end;
    }
    if (j.contains("factor")) e.factor = j.at("factor").as_number();
    if (j.contains("weather")) {
      e.weather_idx = static_cast<int>(
          json_index(j.at("weather"), static_cast<double>(weather.size()),
                     "fault script: event " + std::to_string(i), "weather"));
    }
    events.push_back(e);
  }
  // Events are trusted as-is (NOT re-expanded from weather): replay from
  // JSON is exact without the Soc in hand.
  return FaultScript(std::move(events), std::move(weather));
}

std::optional<std::string> verify_timeline_against_faults(
    const Timeline& timeline, const FaultScript& script,
    const sim::TaskTable* table) {
  for (std::size_t i = 0; i < timeline.tasks.size(); ++i) {
    const TaskRecord& t = timeline.tasks[i];
    // A hair of grace past the start: the DES starts tasks exactly at
    // recovery edges it reached by summing float dt steps.
    if (!script.available(t.proc_idx, t.start_ms + 1e-6)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "task %zu (slot %zu seq %zu) started at %.6f ms on "
                    "processor %zu while it was dropped out",
                    i, t.model_idx, t.seq_in_model, t.start_ms, t.proc_idx);
      return std::string(buf);
    }
  }
  // Bus-degrade lower bound: a task that ran ENTIRELY inside a bus-degrade
  // window must take at least its solo time dilated by the window's
  // guaranteed slowdown — a degraded bus can never speed anything up.
  // Needs per-task memory sensitivity, so it only runs when the caller
  // supplies the DES's task table (indexed like the timeline records).
  if (table != nullptr && script.has_bus_degrade()) {
    const std::size_t n = std::min(table->size(), timeline.tasks.size());
    for (std::size_t i = 0; i < n; ++i) {
      const TaskRecord& t = timeline.tasks[i];
      // Migrated by the DES: the final run used the fallback cost row, not
      // the table's planned numbers — skip.
      if (t.proc_idx != table->proc_idx[i]) continue;
      for (const FaultEvent& e : script.events()) {
        if (e.kind != FaultKind::kBusDegrade) continue;
        if (!(t.start_ms >= e.begin_ms - 1e-6 && t.end_ms <= e.end_ms + 1e-6)) {
          continue;  // not fully contained in this window
        }
        const double expected =
            table->solo_ms[i] * ContentionModel::bus_degrade_slowdown(
                                    e.factor, table->sensitivity[i]);
        if (t.duration_ms() < expected - 1e-6) {
          char buf[200];
          std::snprintf(buf, sizeof(buf),
                        "task %zu (slot %zu seq %zu) took %.6f ms inside a "
                        "bus-degrade window (factor %.3f) but the degraded "
                        "bus alone implies >= %.6f ms",
                        i, t.model_idx, t.seq_in_model, t.duration_ms(),
                        e.factor, expected);
          return std::string(buf);
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace h2p
