#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "soc/soc.h"
#include "util/json.h"

namespace h2p {

/// What goes wrong.  The fault model covers the four behaviours the paper's
/// own motivation documents on real devices: transient throughput loss
/// (Fig. 11 thermal throttling), transient unavailability with recovery (an
/// NPU driver reset), permanent drop-out (the driver never comes back; the
/// HiAI fallback scenario), and *shared* memory-bus bandwidth loss
/// (background apps hammering the bus hurt every processor at once — the
/// dominant co-execution channel per HaX-CoNN).
enum class FaultKind : std::uint8_t {
  /// Processor delivers `factor` of its throughput over [begin, end).  It
  /// stays available: tasks may still be placed on and started by it.
  kSlowdown,
  /// Processor is unavailable over [begin, end): it starts no new task.  A
  /// task already running when the window opens is frozen (its driver queue
  /// survives the reset) and resumes at recovery.  `end = +inf` makes the
  /// drop-out permanent: pending work must migrate or it never completes.
  kDropout,
  /// The SHARED memory bus delivers `factor` of its bandwidth over
  /// [begin, end).  `proc_idx` is ignored — the degradation hits every
  /// processor's memory-bound execution share at once (see
  /// ContentionModel::bus_degrade_slowdown) and scales the planner's bus
  /// bandwidth term when the serving loop observes it at plan time.
  kBusDegrade,
};

const char* to_string(FaultKind kind);

/// One scripted fault against one processor (or, for kBusDegrade, against
/// the shared bus).  Times are modeled stream milliseconds (the same clock
/// OnlineRequest::arrival_ms uses).
struct FaultEvent {
  FaultKind kind = FaultKind::kSlowdown;
  std::size_t proc_idx = 0;
  double begin_ms = 0.0;
  /// Exclusive end of the fault window; +inf = never recovers.
  double end_ms = 0.0;
  /// Throughput factor (kSlowdown) or remaining bus-bandwidth fraction
  /// (kBusDegrade) in (0, 1] while the window is active; ignored for
  /// drop-outs.
  double factor = 1.0;
  /// Index into FaultScript::weather() of the root cause this event was
  /// expanded from; -1 = a base (uncorrelated) event.  Pure provenance: the
  /// DES and the serving loop consume only the expanded events.
  int weather_idx = -1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Correlated root causes ("fault weather", the paper's Fig. 11 motivation):
/// real devices degrade in correlated ways — one thermal event throttles
/// several processors at once, one background app steals bus bandwidth from
/// everyone, one driver crash cascades across accelerators.
enum class WeatherKind : std::uint8_t {
  /// Sustained heat soak: every thermally exposed processor (CPU clusters +
  /// GPU by default) slows down with ONE onset, each by its own kind's
  /// throttle depth scaled by `severity`.
  kThermalStorm,
  /// A background app bursts onto the device: the shared bus loses
  /// bandwidth (kBusDegrade) and the small-CPU cluster — where background
  /// work lands — additionally slows down.
  kBackgroundBurst,
  /// Accelerator driver crash cascade: the NPU drops out, then the GPU a
  /// beat later (staggered onsets, one recovery), the way one wedged
  /// vendor blob takes its siblings down with it.
  kDriverCascade,
};

const char* to_string(WeatherKind kind);

/// One weather event.  `procs` overrides the kind's default victim set
/// (indices into the Soc); empty = derive from processor kinds as described
/// on WeatherKind.  Expansion into FaultEvents is a pure function of
/// (event, soc) — see expand_weather — so replaying a script reproduces the
/// same correlated storm bit for bit.
struct WeatherEvent {
  WeatherKind kind = WeatherKind::kThermalStorm;
  double begin_ms = 0.0;
  double duration_ms = 0.0;
  /// How bad it is, in (0, 1]: scales throttle depth / bandwidth loss /
  /// cascade reach.
  double severity = 0.5;
  std::vector<std::size_t> procs;

  friend bool operator==(const WeatherEvent&, const WeatherEvent&) = default;
};

/// Deterministic expansion of one weather root cause into the per-processor
/// / shared-bus FaultEvents the DES consumes.  Every produced event carries
/// `weather_idx` so scripts stay self-describing in JSON.
[[nodiscard]] std::vector<FaultEvent> expand_weather(const WeatherEvent& event,
                                                     const Soc& soc,
                                                     int weather_idx = -1);

/// Knobs for seed-driven random fault sampling (FaultScript::sample).
struct FaultSamplerOptions {
  /// Sampling horizon: no fault begins at or after this time.
  double horizon_ms = 500.0;
  /// Mean inter-arrival gap of fault events per processor.
  double mean_gap_ms = 120.0;
  /// Probability an event is a drop-out (else a slowdown).
  double dropout_prob = 0.35;
  /// Probability a sampled drop-out is permanent (end = +inf).
  double permanent_prob = 0.15;
  /// Outage / slowdown durations are exponential with these means.
  double mean_outage_ms = 25.0;
  double mean_slowdown_ms = 60.0;
  /// Slowdown factors are uniform in [min_factor, max_factor].
  double min_factor = 0.4;
  double max_factor = 0.9;
  /// Never fault processor 0 permanently when it is the only survivor:
  /// the sampler skips a permanent drop-out that would leave no processor
  /// alive at any point in time.
  bool keep_one_alive = true;
  /// Sample the independent per-processor events above at all.  Disable to
  /// sample *pure weather* scripts (the per-processor sweep then consumes
  /// no rng, so weather sequences are comparable across the toggle).
  bool per_proc_faults = true;
  /// Mean inter-arrival gap of correlated weather events; 0 (the default)
  /// disables weather sampling entirely AND consumes no rng, so every
  /// pre-weather seed still reproduces its historical script bit for bit.
  double mean_weather_gap_ms = 0.0;
  /// Weather durations are exponential with this mean (floored at 5 ms);
  /// severities are uniform in [min_severity, max_severity].
  double mean_weather_duration_ms = 80.0;
  double min_severity = 0.3;
  double max_severity = 0.9;
};

/// A deterministic, replayable set of fault events against one Soc.
///
/// The script is the *environment*: the discrete-event simulator consumes
/// it as ground truth (a processor in a drop-out window dispatches nothing;
/// a slowed processor's tasks progress at `factor` of their rate), while
/// the online serving loop only observes it through point queries at plan
/// time — it reacts to the present, never peeks at the future.  Replaying
/// the same script (or the same sample seed) reproduces every timeline,
/// plan and statistic bit-identically, serial or async.
///
/// Construction compiles the script into a segment timeline.  The cut
/// points are the distinct `begin_ms - eps` and `end_ms - eps` of every
/// event — exactly the doubles a window-membership test compares against —
/// so the fault state is constant inside each segment, and every query below
/// is one binary search plus an array read, bit-identical to scanning all
/// events (slowdown and bus products are multiplied in event order, then
/// clamped).  Building costs O(E log E + the sum over events of the segments
/// each one spans) time and O(segments * slowed processors) memory for E
/// events.  Slowdown and drop-out events must name a processor below 64 (the
/// availability_mask width).  The script is immutable once built.
class FaultScript {
 public:
  /// Window-membership tolerance: an event covers t exactly when
  /// begin_ms - kEdgeEps <= t < end_ms - kEdgeEps.  The DES lands its clock
  /// on window edges by accumulating dt steps, so a query a hair before an
  /// edge must resolve to the state *after* it.
  static constexpr double kEdgeEps = 1e-9;

  FaultScript() : FaultScript(std::vector<FaultEvent>{}) {}
  explicit FaultScript(std::vector<FaultEvent> events);
  /// Events plus their (already expanded) weather provenance — the form the
  /// JSON round-trip rebuilds.  The events are trusted as-is; weather is
  /// NOT re-expanded (no Soc needed), so from-JSON replay is exact.
  FaultScript(std::vector<FaultEvent> events, std::vector<WeatherEvent> weather);

  /// Build a script from weather root causes (plus optional uncorrelated
  /// base events): every weather event is expanded against `soc` and the
  /// resulting per-processor / bus events merged with the base set.
  static FaultScript with_weather(const Soc& soc,
                                  std::vector<WeatherEvent> weather,
                                  std::vector<FaultEvent> base_events = {});

  /// Deterministic random script: the same (soc, seed, options) triple
  /// always yields the same events.  Distinct seeds decorrelate.  With
  /// `options.mean_weather_gap_ms > 0`, correlated weather events are
  /// sampled after the per-processor sweep and expanded against `soc`.
  static FaultScript sample(const Soc& soc, std::uint64_t seed,
                            const FaultSamplerOptions& options = {});

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<WeatherEvent>& weather() const {
    return weather_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// True when no drop-out window covers `t_ms` on `proc`.  Slowdowns do
  /// not affect availability.
  [[nodiscard]] bool available(std::size_t proc, double t_ms) const;

  /// True when a drop-out with end = +inf covers `t_ms` on `proc`.
  [[nodiscard]] bool permanently_down(std::size_t proc, double t_ms) const;

  /// Product of the factors of every slowdown window covering `t_ms` on
  /// `proc` (1.0 when none), clamped below at 0.05.
  [[nodiscard]] double slowdown(std::size_t proc, double t_ms) const;

  /// Remaining shared-bus bandwidth fraction at `t_ms`: the product of the
  /// factors of every kBusDegrade window covering it (1.0 when none),
  /// clamped below at 0.05.  Shared: the same value applies to every
  /// processor.
  [[nodiscard]] double bus_factor(double t_ms) const;

  /// True when any kBusDegrade event exists at all (cheap gate for the DES
  /// and the serving loop to skip bus queries on bus-clean scripts).
  [[nodiscard]] bool has_bus_degrade() const { return has_bus_degrade_; }

  /// Bit p set = processor p available at `t_ms`.  `num_procs` <= 64.
  [[nodiscard]] std::uint64_t availability_mask(double t_ms,
                                                std::size_t num_procs) const;

  /// Earliest fault-window begin or (finite) end strictly after `t_ms`;
  /// +inf when the fault state never changes again.  The DES advances its
  /// clock past these edges so every integration interval has constant
  /// fault state.
  [[nodiscard]] double next_change_after(double t_ms) const;

  /// All finite window edges (begins and ends), sorted ascending and
  /// distinct.
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }

  /// Forward-only reader of the segment timeline for a clock that never
  /// moves backwards (the DES).  `advance(t)` steps over the cuts at or
  /// before `t`, after which every query answers for `t` in O(1), exactly
  /// as the point queries above would.  Holds two words and allocates
  /// nothing; the script must outlive it.
  class Cursor {
   public:
    explicit Cursor(const FaultScript& script) : script_(&script) {}

    /// Moves to the segment holding `t_ms`, which must not be NaN or below
    /// any earlier argument.  Returns how many segments it crossed.
    std::size_t advance(double t_ms) {
      const std::size_t from = seg_;
      const std::vector<double>& cuts = script_->cuts_;
      while (seg_ < cuts.size() && cuts[seg_] <= t_ms) ++seg_;
      return seg_ - from;
    }
    /// Index of the current segment (0 before the first cut).
    [[nodiscard]] std::size_t segment() const { return seg_; }

    [[nodiscard]] bool available(std::size_t proc) const {
      return !has_bit(script_->segments_[seg_].down, proc);
    }
    [[nodiscard]] bool permanently_down(std::size_t proc) const {
      return has_bit(script_->segments_[seg_].permanent, proc);
    }
    [[nodiscard]] double slowdown(std::size_t proc) const {
      const std::size_t w = script_->slow_procs_;
      return proc < w ? script_->slow_[seg_ * w + proc] : 1.0;
    }
    [[nodiscard]] double bus_factor() const {
      return script_->segments_[seg_].bus;
    }

   private:
    const FaultScript* script_;
    std::size_t seg_ = 0;
  };

 private:
  /// Fault state over one segment of the timeline.
  struct Segment {
    std::uint64_t down = 0;       // bit p: a drop-out covers processor p
    std::uint64_t permanent = 0;  // bit p: a permanent drop-out covers p
    double bus = 1.0;             // clamped kBusDegrade product
  };

  /// Bit `proc` of an availability-width (64-bit) processor mask.
  static bool has_bit(std::uint64_t mask, std::size_t proc) {
    return proc < 64 && ((mask >> proc) & 1u) != 0;
  }

  /// Validates and sorts the events, then compiles the timeline.
  void normalize();
  /// Index of the segment holding `t_ms`.
  [[nodiscard]] std::size_t segment_index(double t_ms) const;

  std::vector<FaultEvent> events_;  // sorted by (begin, proc, kind)
  std::vector<WeatherEvent> weather_;
  bool has_bus_degrade_ = false;
  std::vector<double> edges_;
  /// Sorted distinct cut points; segment k covers
  /// [cuts_[k-1], cuts_[k]), so there is one more segment than cut.
  std::vector<double> cuts_;
  std::vector<Segment> segments_;
  /// Clamped slowdown products, row-major [segment][processor], with
  /// `slow_procs_` columns: one past the highest slowed processor.
  std::size_t slow_procs_ = 0;
  std::vector<double> slow_;
};

/// JSON round-trip for scripted faults (`h2p_cli online --faults f.json`).
/// Schema: {"events": [{"kind": "slowdown"|"dropout"|"bus_degrade",
///                      "proc": 0, "begin_ms": 0, "end_ms": 40 | null,
///                      "factor": 0.5, "weather": 0}],
///          "weather": [{"kind": "thermal_storm"|"background_burst"|
///                       "driver_cascade", "begin_ms": 0, "duration_ms": 40,
///                       "severity": 0.6, "procs": [0, 2]}]}
/// A null / absent / non-finite end_ms means permanent; the optional
/// "weather" fields carry the correlated-root-cause provenance and round
/// trip verbatim (events are NOT re-expanded, so replay is exact without a
/// Soc in hand).  "proc" and every "procs" entry must be a whole number
/// below 64, and "weather" must index the script's own "weather" list;
/// anything else throws std::runtime_error naming the entry and field.
[[nodiscard]] Json fault_script_to_json(const FaultScript& script);
[[nodiscard]] FaultScript fault_script_from_json(const Json& json);

namespace sim {
class TaskTable;
}

/// Post-hoc safety checker used by every fault test: scans a simulated
/// timeline and returns a description of the first violation, or nullopt
/// when the timeline is clean.  Two checks:
///  - No task *started* on a processor inside one of the script's drop-out
///    windows (a task that began before the window opened and was frozen
///    across it is legal).
///  - When `table` (the DES input of the timeline) is supplied, every task
///    that ran entirely inside a bus-degrade window on its planned
///    processor took at least solo_ms * ContentionModel::
///    bus_degrade_slowdown(factor, sensitivity).  Tasks the DES migrated
///    (record proc != planned proc) are skipped: their final run uses the
///    fallback cost row, not the table's planned numbers.
[[nodiscard]] std::optional<std::string> verify_timeline_against_faults(
    const Timeline& timeline, const FaultScript& script,
    const sim::TaskTable* table = nullptr);

}  // namespace h2p
