// FaultScript: deterministic sampling, state queries, JSON round-trip, and
// the post-hoc timeline safety checker — plus correlated weather expansion
// (thermal storms, background bursts, driver cascades), shared-bus
// degradation through both DES kernels, and the bus-aware timeline check.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "contention/contention_model.h"
#include "sim/fault_injector.h"
#include "sim/pipeline_sim.h"
#include "sim/pipeline_sim_reference.h"
#include "soc/soc.h"
#include "soc/thermal.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

FaultScript two_phase_script() {
  // proc 1: transient drop-out [10, 20); proc 2: slowdown 0.5 on [5, 30);
  // proc 0: permanent drop-out from 40.
  return FaultScript({
      FaultEvent{FaultKind::kDropout, 1, 10.0, 20.0, 1.0},
      FaultEvent{FaultKind::kSlowdown, 2, 5.0, 30.0, 0.5},
      FaultEvent{FaultKind::kDropout, 0, 40.0, kInf, 1.0},
  });
}

TEST(FaultScript, AvailabilityQueries) {
  const FaultScript s = two_phase_script();
  EXPECT_TRUE(s.available(1, 9.0));
  EXPECT_FALSE(s.available(1, 10.0));
  EXPECT_FALSE(s.available(1, 19.999));
  EXPECT_TRUE(s.available(1, 20.0));  // recovery edge is exclusive
  EXPECT_TRUE(s.available(0, 39.0));
  EXPECT_FALSE(s.available(0, 40.0));
  EXPECT_FALSE(s.available(0, 1e9));  // permanent
  EXPECT_TRUE(s.permanently_down(0, 50.0));
  EXPECT_FALSE(s.permanently_down(1, 15.0));  // transient
}

TEST(FaultScript, SlowdownMultipliesAndClamps) {
  const FaultScript s({
      FaultEvent{FaultKind::kSlowdown, 0, 0.0, 10.0, 0.5},
      FaultEvent{FaultKind::kSlowdown, 0, 5.0, 10.0, 0.4},
  });
  EXPECT_DOUBLE_EQ(s.slowdown(0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.slowdown(0, 7.0), 0.2);  // overlapping windows multiply
  EXPECT_DOUBLE_EQ(s.slowdown(0, 11.0), 1.0);
  EXPECT_DOUBLE_EQ(s.slowdown(1, 7.0), 1.0);  // other proc untouched
}

TEST(FaultScript, AvailabilityMask) {
  const FaultScript s = two_phase_script();
  EXPECT_EQ(s.availability_mask(0.0, 4), 0b1111ull);
  EXPECT_EQ(s.availability_mask(15.0, 4), 0b1101ull);  // proc 1 down
  EXPECT_EQ(s.availability_mask(50.0, 4), 0b1110ull);  // proc 0 gone
}

TEST(FaultScript, EdgesAndNextChange) {
  const FaultScript s = two_phase_script();
  const std::vector<double> edges = s.edges();
  EXPECT_EQ(edges, (std::vector<double>{5.0, 10.0, 20.0, 30.0, 40.0}));
  EXPECT_DOUBLE_EQ(s.next_change_after(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.next_change_after(20.0), 30.0);
  EXPECT_TRUE(std::isinf(s.next_change_after(40.0)));
}

TEST(FaultScript, RejectsMalformedEvents) {
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kDropout, 0, -1.0, 5.0, 1.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kDropout, 0, 5.0, 5.0, 1.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kSlowdown, 0, 0.0, 5.0, 1.5}}),
      std::invalid_argument);
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kSlowdown, 0, 0.0, 5.0, 0.0}}),
      std::invalid_argument);
}

TEST(FaultScript, SamplingIsDeterministicInSeed) {
  const Soc soc = Soc::kirin990();
  const FaultScript a = FaultScript::sample(soc, 7);
  const FaultScript b = FaultScript::sample(soc, 7);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].proc_idx, b.events()[i].proc_idx);
    EXPECT_EQ(a.events()[i].begin_ms, b.events()[i].begin_ms);  // bit-identical
    EXPECT_EQ(a.events()[i].end_ms, b.events()[i].end_ms);
    EXPECT_EQ(a.events()[i].factor, b.events()[i].factor);
  }
  // Different seeds explore different fault sequences (overwhelmingly).
  const FaultScript c = FaultScript::sample(soc, 8);
  bool differs = a.events().size() != c.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].begin_ms != c.events()[i].begin_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScript, SamplerKeepsOneProcessorAlive) {
  const Soc soc = Soc::kirin990();
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    FaultSamplerOptions opts;
    opts.dropout_prob = 1.0;
    opts.permanent_prob = 1.0;  // every fault wants to be a permanent dropout
    const FaultScript s = FaultScript::sample(soc, seed, opts);
    std::size_t permanent = 0;
    for (const FaultEvent& e : s.events()) {
      if (e.kind == FaultKind::kDropout && std::isinf(e.end_ms)) ++permanent;
    }
    EXPECT_LT(permanent, soc.num_processors()) << "seed " << seed;
  }
}

TEST(FaultScript, JsonRoundTrip) {
  const FaultScript s = two_phase_script();
  const FaultScript back = fault_script_from_json(fault_script_to_json(s));
  ASSERT_EQ(back.events().size(), s.events().size());
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    EXPECT_EQ(back.events()[i].kind, s.events()[i].kind);
    EXPECT_EQ(back.events()[i].proc_idx, s.events()[i].proc_idx);
    EXPECT_EQ(back.events()[i].begin_ms, s.events()[i].begin_ms);
    EXPECT_EQ(back.events()[i].end_ms, s.events()[i].end_ms);  // inf via null
    if (s.events()[i].kind == FaultKind::kSlowdown) {
      EXPECT_EQ(back.events()[i].factor, s.events()[i].factor);
    }
  }
  // Text-level stability too: dump -> parse -> dump is a fixed point.
  const std::string dumped = fault_script_to_json(s).dump();
  EXPECT_EQ(fault_script_to_json(fault_script_from_json(Json::parse(dumped))).dump(),
            dumped);
}

/// The runtime_error message fault_script_from_json throws for `text`, or
/// "" when it parses.
std::string json_error(const std::string& text) {
  try {
    (void)fault_script_from_json(Json::parse(text));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(FaultScript, JsonRejectsNonIntegerIndices) {
  const std::string head =
      R"({"events": [{"kind": "slowdown", "begin_ms": 0, "end_ms": 5, )"
      R"("factor": 0.5}, {"kind": "dropout", "begin_ms": 1, "end_ms": 4, )";
  for (const char* proc : {"-1", "2.5", "64", "1e300", "-0.5"}) {
    const std::string err = json_error(head + "\"proc\": " + proc + "}]}");
    EXPECT_NE(err.find("event 1: \"proc\" must be an integer in [0, 64)"),
              std::string::npos)
        << proc << ": " << err;
  }
  EXPECT_EQ(json_error(head + "\"proc\": 63}]}"), "");
  EXPECT_EQ(json_error(head + "\"proc\": -0}]}"), "");
}

TEST(FaultScript, JsonWeatherIndexMustNameOwnWeather) {
  const std::string storm = R"("weather": [{"kind": "thermal_storm", )"
                            R"("begin_ms": 0, "duration_ms": 10}])";
  const auto script = [&](const std::string& idx, bool with_weather) {
    return R"({"events": [{"kind": "slowdown", "proc": 0, "begin_ms": 0, )"
           R"("end_ms": 5, "factor": 0.5, "weather": )" +
           idx + "}]" + (with_weather ? ", " + storm : std::string()) + "}";
  };
  EXPECT_EQ(json_error(script("0", true)), "");
  for (const char* idx : {"1", "-1", "0.5"}) {
    EXPECT_NE(json_error(script(idx, true))
                  .find("event 0: \"weather\" must be an integer in [0, 1)"),
              std::string::npos)
        << idx;
  }
  EXPECT_NE(json_error(script("0", false)).find("event 0: \"weather\""),
            std::string::npos);
}

TEST(FaultScript, JsonRejectsBadWeatherProcs) {
  for (const char* procs : {"[0, -2]", "[0, 1.5]", "[0, 64]"}) {
    const std::string text =
        std::string(R"({"events": [], "weather": [{"kind": "driver_cascade", )"
                    R"("begin_ms": 0, "duration_ms": 10, "procs": )") +
        procs + "}]}";
    EXPECT_NE(
        json_error(text).find("weather 0: \"procs\" must be an integer"),
        std::string::npos)
        << procs;
  }
}

TEST(FaultScript, TimelineCheckerFlagsViolations) {
  const FaultScript s = two_phase_script();
  Timeline ok;
  ok.num_procs = 4;
  ok.tasks.push_back(TaskRecord{0, 0, 1, 25.0, 28.0, 3.0});  // after recovery
  EXPECT_FALSE(verify_timeline_against_faults(ok, s).has_value());

  Timeline bad = ok;
  bad.tasks.push_back(TaskRecord{1, 0, 1, 12.0, 14.0, 2.0});  // inside dropout
  const auto err = verify_timeline_against_faults(bad, s);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("processor 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Correlated weather: deterministic expansion of root causes.

TEST(FaultWeather, ThermalStormExpandsWithOneOnset) {
  const Soc soc = Soc::kirin990();
  WeatherEvent w;
  w.kind = WeatherKind::kThermalStorm;
  w.begin_ms = 10.0;
  w.duration_ms = 40.0;
  w.severity = 0.6;
  const std::vector<FaultEvent> events = expand_weather(w, soc, 3);
  // CPU big + CPU small + GPU are thermally exposed; the NPU is not.
  ASSERT_EQ(events.size(), 3u);
  for (const FaultEvent& e : events) {
    EXPECT_EQ(e.kind, FaultKind::kSlowdown);
    EXPECT_EQ(e.begin_ms, 10.0);  // ONE onset: the storm is correlated
    EXPECT_EQ(e.end_ms, 50.0);
    EXPECT_EQ(e.weather_idx, 3);
    const Processor& p = soc.processors()[e.proc_idx];
    EXPECT_NE(p.kind, ProcKind::kNpu);
    // Each victim throttles toward its own kind's floor, scaled by severity.
    const double floor = ThermalModel(p).min_factor();
    EXPECT_DOUBLE_EQ(e.factor, 1.0 - 0.6 * (1.0 - floor));
  }
  // Expansion is a pure function of (event, soc).
  EXPECT_EQ(expand_weather(w, soc, 3), events);
}

TEST(FaultWeather, BackgroundBurstDegradesTheSharedBus) {
  const Soc soc = Soc::kirin990();
  WeatherEvent w;
  w.kind = WeatherKind::kBackgroundBurst;
  w.begin_ms = 0.0;
  w.duration_ms = 20.0;
  w.severity = 0.5;
  const std::vector<FaultEvent> events = expand_weather(w, soc, 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kBusDegrade);
  EXPECT_DOUBLE_EQ(events[0].factor, 1.0 - 0.6 * 0.5);
  EXPECT_EQ(events[1].kind, FaultKind::kSlowdown);
  EXPECT_EQ(soc.processors()[events[1].proc_idx].kind, ProcKind::kCpuSmall);
  EXPECT_DOUBLE_EQ(events[1].factor, 1.0 - 0.35 * 0.5);
}

TEST(FaultWeather, DriverCascadeStaggersOnsetsAndSharesRecovery) {
  const Soc soc = Soc::kirin990();
  WeatherEvent w;
  w.kind = WeatherKind::kDriverCascade;
  w.begin_ms = 100.0;
  w.duration_ms = 40.0;
  w.severity = 1.0;
  const std::vector<FaultEvent> events = expand_weather(w, soc, 7);
  ASSERT_EQ(events.size(), 2u);  // full reach: NPU first, then the GPU
  EXPECT_EQ(soc.processors()[events[0].proc_idx].kind, ProcKind::kNpu);
  EXPECT_EQ(soc.processors()[events[1].proc_idx].kind, ProcKind::kGpu);
  for (const FaultEvent& e : events) EXPECT_EQ(e.kind, FaultKind::kDropout);
  EXPECT_DOUBLE_EQ(events[0].begin_ms, 100.0);
  EXPECT_DOUBLE_EQ(events[1].begin_ms, 100.0 + 0.15 * 40.0);  // staggered
  EXPECT_DOUBLE_EQ(events[0].end_ms, 140.0);
  EXPECT_EQ(events[0].end_ms, events[1].end_ms);  // one common recovery
  // Low severity only reaches the first victim.
  w.severity = 0.4;
  EXPECT_EQ(expand_weather(w, soc, 7).size(), 1u);
}

TEST(FaultWeather, ExplicitVictimsOverrideAndInputsAreValidated) {
  const Soc soc = Soc::kirin990();
  WeatherEvent w;
  w.kind = WeatherKind::kThermalStorm;
  w.begin_ms = 0.0;
  w.duration_ms = 10.0;
  w.severity = 0.8;
  w.procs = {0};  // storm the NPU, overriding the kind-derived victim set
  const std::vector<FaultEvent> events = expand_weather(w, soc);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proc_idx, 0u);
  EXPECT_EQ(events[0].weather_idx, -1);

  WeatherEvent bad = w;
  bad.procs = {99};
  EXPECT_THROW((void)expand_weather(bad, soc), std::invalid_argument);
  bad = w;
  bad.severity = 0.0;
  EXPECT_THROW((void)expand_weather(bad, soc), std::invalid_argument);
  bad.severity = 1.5;
  EXPECT_THROW((void)expand_weather(bad, soc), std::invalid_argument);
  bad = w;
  bad.duration_ms = 0.0;
  EXPECT_THROW((void)expand_weather(bad, soc), std::invalid_argument);
  bad = w;
  bad.begin_ms = -1.0;
  EXPECT_THROW((void)expand_weather(bad, soc), std::invalid_argument);
}

TEST(FaultWeather, WithWeatherMergesBaseEventsAndTagsProvenance) {
  const Soc soc = Soc::kirin990();
  WeatherEvent storm;
  storm.kind = WeatherKind::kThermalStorm;
  storm.begin_ms = 20.0;
  storm.duration_ms = 30.0;
  storm.severity = 0.5;
  WeatherEvent burst;
  burst.kind = WeatherKind::kBackgroundBurst;
  burst.begin_ms = 60.0;
  burst.duration_ms = 10.0;
  burst.severity = 0.8;
  const FaultScript s = FaultScript::with_weather(
      soc, {storm, burst},
      {FaultEvent{FaultKind::kDropout, 1, 5.0, 8.0, 1.0}});

  ASSERT_EQ(s.weather().size(), 2u);
  EXPECT_EQ(s.weather()[0], storm);
  EXPECT_EQ(s.weather()[1], burst);
  std::size_t base = 0, from_storm = 0, from_burst = 0;
  for (const FaultEvent& e : s.events()) {
    if (e.weather_idx == -1) ++base;
    if (e.weather_idx == 0) ++from_storm;
    if (e.weather_idx == 1) ++from_burst;
  }
  EXPECT_EQ(base, 1u);
  EXPECT_EQ(from_storm, 3u);  // big CPU + small CPU + GPU slowdowns
  EXPECT_EQ(from_burst, 2u);  // bus degrade + small-CPU slowdown
  // The burst is visible through the shared-bus query...
  EXPECT_TRUE(s.has_bus_degrade());
  EXPECT_DOUBLE_EQ(s.bus_factor(65.0), 1.0 - 0.6 * 0.8);
  // ...and only inside its window.
  EXPECT_DOUBLE_EQ(s.bus_factor(15.0), 1.0);
  EXPECT_DOUBLE_EQ(s.bus_factor(75.0), 1.0);
}

// ---------------------------------------------------------------------------
// Shared-bus degradation: point queries, validation, DES, and the checker.

TEST(BusDegrade, BusFactorMultipliesOverlapsAndClamps) {
  const FaultScript s({
      FaultEvent{FaultKind::kBusDegrade, 0, 10.0, 30.0, 0.5},
      FaultEvent{FaultKind::kBusDegrade, 0, 20.0, 40.0, 0.4},
      FaultEvent{FaultKind::kBusDegrade, 0, 100.0, 110.0, 0.01 + 0.02},
  });
  EXPECT_TRUE(s.has_bus_degrade());
  EXPECT_DOUBLE_EQ(s.bus_factor(5.0), 1.0);
  EXPECT_DOUBLE_EQ(s.bus_factor(15.0), 0.5);
  EXPECT_DOUBLE_EQ(s.bus_factor(25.0), 0.5 * 0.4);  // overlapping windows
  EXPECT_DOUBLE_EQ(s.bus_factor(35.0), 0.4);
  EXPECT_DOUBLE_EQ(s.bus_factor(105.0), 0.05);  // clamped below
  EXPECT_DOUBLE_EQ(s.bus_factor(50.0), 1.0);

  // A bus-clean script reports no degradation at all.
  EXPECT_FALSE(two_phase_script().has_bus_degrade());
  EXPECT_DOUBLE_EQ(two_phase_script().bus_factor(15.0), 1.0);

  // Factors outside (0, 1] are rejected like slowdown factors.
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kBusDegrade, 0, 0.0, 1.0, 0.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      FaultScript({FaultEvent{FaultKind::kBusDegrade, 0, 0.0, 1.0, 1.2}}),
      std::invalid_argument);
}

TEST(BusDegrade, SlowdownFormulaSharedByKernelsAndChecker) {
  // Healthy bus is exactly free.
  EXPECT_DOUBLE_EQ(ContentionModel::bus_degrade_slowdown(1.0, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(ContentionModel::bus_degrade_slowdown(1.5, 0.9), 1.0);
  // A memory-insensitive task still pays the vulnerability floor.
  EXPECT_GT(ContentionModel::bus_degrade_slowdown(0.5, 0.0), 1.0);
  // Monotone in sensitivity, capped like co-execution slowdowns.
  EXPECT_LT(ContentionModel::bus_degrade_slowdown(0.5, 0.2),
            ContentionModel::bus_degrade_slowdown(0.5, 0.8));
  EXPECT_DOUBLE_EQ(ContentionModel::bus_degrade_slowdown(0.01, 1.0), 2.5);
}

TEST(BusDegrade, SingleTaskDilatesByTheAnalyticFactor) {
  // One task, no co-runners: the only slowdown channel is the degraded bus,
  // so the DES duration must equal solo_ms * bus_degrade_slowdown exactly.
  const Soc soc = Soc::kirin990();
  const FaultScript faults(
      {FaultEvent{FaultKind::kBusDegrade, 0, 0.0, 1000.0, 0.5}});
  SimTask t;
  t.proc_idx = 1;
  t.solo_ms = 10.0;
  t.sensitivity = 0.5;
  const std::vector<SimTask> tasks{t};
  SimOptions opts;
  opts.faults = &faults;
  const Timeline tl = simulate(soc, tasks, opts);
  ASSERT_EQ(tl.tasks.size(), 1u);
  const double expected =
      10.0 * ContentionModel::bus_degrade_slowdown(0.5, 0.5);
  EXPECT_NEAR(tl.tasks[0].duration_ms(), expected, 1e-9);
  // And the frozen reference kernel agrees bit for bit.
  const Timeline ref = sim::simulate_reference(soc, tasks, opts);
  EXPECT_EQ(tl.tasks[0].start_ms, ref.tasks[0].start_ms);
  EXPECT_EQ(tl.tasks[0].end_ms, ref.tasks[0].end_ms);
}

TEST(BusDegrade, SoAMatchesReferenceUnderFullWeather) {
  // Two pipelined chains across all four processors under a storm, a bus
  // burst and a driver cascade at once: the SoA kernel and the frozen
  // reference must agree on every start/end bit for bit.
  const Soc soc = Soc::kirin990();
  WeatherEvent storm;
  storm.kind = WeatherKind::kThermalStorm;
  storm.begin_ms = 5.0;
  storm.duration_ms = 30.0;
  storm.severity = 0.7;
  WeatherEvent burst;
  burst.kind = WeatherKind::kBackgroundBurst;
  burst.begin_ms = 10.0;
  burst.duration_ms = 25.0;
  burst.severity = 0.6;
  WeatherEvent cascade;
  cascade.kind = WeatherKind::kDriverCascade;
  cascade.begin_ms = 20.0;
  cascade.duration_ms = 15.0;
  cascade.severity = 1.0;
  const FaultScript faults =
      FaultScript::with_weather(soc, {storm, burst, cascade});

  std::vector<SimTask> tasks;
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t s = 0; s < 4; ++s) {
      SimTask t;
      t.model_idx = m;
      t.seq_in_model = s;
      t.proc_idx = (s + m) % 4;
      t.solo_ms = 6.0 + 2.0 * static_cast<double>(s) + static_cast<double>(m);
      t.sensitivity = 0.2 + 0.15 * static_cast<double>(s);
      t.intensity = 0.3 + 0.1 * static_cast<double>(m);
      t.arrival_ms = 2.0 * static_cast<double>(m);
      tasks.push_back(t);
    }
  }
  SimOptions opts;
  opts.faults = &faults;
  const Timeline soa = simulate(soc, tasks, opts);
  const Timeline ref = sim::simulate_reference(soc, tasks, opts);
  ASSERT_EQ(soa.tasks.size(), ref.tasks.size());
  for (std::size_t i = 0; i < soa.tasks.size(); ++i) {
    EXPECT_EQ(soa.tasks[i].proc_idx, ref.tasks[i].proc_idx) << "task " << i;
    EXPECT_EQ(soa.tasks[i].start_ms, ref.tasks[i].start_ms) << "task " << i;
    EXPECT_EQ(soa.tasks[i].end_ms, ref.tasks[i].end_ms) << "task " << i;
  }
  // The post-hoc checker accepts the genuine DES output.
  sim::TaskTable table;
  table.build_from_tasks(tasks, soc.num_processors());
  EXPECT_FALSE(
      verify_timeline_against_faults(soa, faults, &table).has_value());
}

TEST(BusDegrade, CheckerFlagsTasksTooFastForTheDegradedBus) {
  const FaultScript s(
      {FaultEvent{FaultKind::kBusDegrade, 0, 0.0, 100.0, 0.5}});
  SimTask t;
  t.proc_idx = 1;
  t.solo_ms = 10.0;
  t.sensitivity = 0.5;
  const std::vector<SimTask> tasks{t};
  sim::TaskTable table;
  table.build_from_tasks(tasks, 4);
  const double expected =
      10.0 * ContentionModel::bus_degrade_slowdown(0.5, 0.5);

  // Faster than the degraded bus allows: flagged.
  Timeline fast;
  fast.num_procs = 4;
  fast.tasks.push_back(TaskRecord{0, 0, 1, 0.0, expected - 1.0, 10.0});
  const auto err = verify_timeline_against_faults(fast, s, &table);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bus"), std::string::npos);

  // Exactly the analytic dilation: clean.
  Timeline ok = fast;
  ok.tasks[0].end_ms = expected;
  EXPECT_FALSE(verify_timeline_against_faults(ok, s, &table).has_value());

  // A migrated task (record proc != planned proc) runs off its fallback
  // cost row, not the table's numbers — the bus check must skip it.
  Timeline migrated = fast;
  migrated.tasks[0].proc_idx = 2;
  EXPECT_FALSE(
      verify_timeline_against_faults(migrated, s, &table).has_value());

  // Without the task table the bus check is simply not run.
  EXPECT_FALSE(verify_timeline_against_faults(fast, s).has_value());
}

// ---------------------------------------------------------------------------
// Weather through the sampler and the JSON round-trip.

TEST(FaultWeather, JsonRoundTripsWeatherAndBusExactly) {
  const Soc soc = Soc::kirin990();
  WeatherEvent storm;
  storm.kind = WeatherKind::kThermalStorm;
  storm.begin_ms = 20.0;
  storm.duration_ms = 30.0;
  storm.severity = 0.5;
  storm.procs = {1, 2};
  WeatherEvent burst;
  burst.kind = WeatherKind::kBackgroundBurst;
  burst.begin_ms = 60.0;
  burst.duration_ms = 10.0;
  burst.severity = 0.8;
  const FaultScript s = FaultScript::with_weather(
      soc, {storm, burst},
      {FaultEvent{FaultKind::kDropout, 0, 90.0, kInf, 1.0},
       FaultEvent{FaultKind::kBusDegrade, 0, 1.0, 4.0, 0.7}});

  const FaultScript back = fault_script_from_json(fault_script_to_json(s));
  // Events round-trip verbatim, weather_idx provenance included — the
  // parser trusts the expanded events and never re-expands (no Soc needed).
  EXPECT_EQ(back.events(), s.events());
  EXPECT_EQ(back.weather(), s.weather());
  EXPECT_TRUE(back.has_bus_degrade());
  EXPECT_DOUBLE_EQ(back.bus_factor(2.0), 0.7);
  // Text-level fixed point, as for bus-clean scripts.
  const std::string dumped = fault_script_to_json(s).dump();
  EXPECT_EQ(
      fault_script_to_json(fault_script_from_json(Json::parse(dumped))).dump(),
      dumped);
}

TEST(FaultWeather, SamplerWeatherIsDeterministicInSeed) {
  const Soc soc = Soc::kirin990();
  FaultSamplerOptions opts;
  opts.mean_weather_gap_ms = 60.0;
  const FaultScript a = FaultScript::sample(soc, 42, opts);
  const FaultScript b = FaultScript::sample(soc, 42, opts);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.weather(), b.weather());
  // Distinct seeds decorrelate.
  const FaultScript c = FaultScript::sample(soc, 43, opts);
  EXPECT_NE(a.events(), c.events());
}

TEST(FaultWeather, EnablingWeatherDoesNotPerturbTheBaseSweep) {
  // Weather is sampled strictly after the per-processor sweep, so turning
  // it on must reproduce the historical base events bit for bit — only
  // adding tagged weather events on top.
  const Soc soc = Soc::kirin990();
  const FaultScript plain = FaultScript::sample(soc, 11);
  FaultSamplerOptions opts;
  opts.mean_weather_gap_ms = 60.0;
  const FaultScript stormy = FaultScript::sample(soc, 11, opts);

  std::vector<FaultEvent> base_only;
  for (const FaultEvent& e : stormy.events()) {
    if (e.weather_idx == -1) base_only.push_back(e);
  }
  EXPECT_EQ(base_only, plain.events());
  EXPECT_TRUE(plain.weather().empty());
}

TEST(FaultWeather, PureWeatherSamplingTagsEveryEvent) {
  const Soc soc = Soc::kirin990();
  FaultSamplerOptions opts;
  opts.per_proc_faults = false;
  opts.mean_weather_gap_ms = 40.0;
  const FaultScript s = FaultScript::sample(soc, 7, opts);
  ASSERT_FALSE(s.weather().empty());
  ASSERT_FALSE(s.events().empty());
  for (const FaultEvent& e : s.events()) {
    EXPECT_GE(e.weather_idx, 0);
    EXPECT_LT(static_cast<std::size_t>(e.weather_idx), s.weather().size());
  }
  // Same toggle, same seed: bit-identical replay.
  const FaultScript again = FaultScript::sample(soc, 7, opts);
  EXPECT_EQ(s.events(), again.events());
  EXPECT_EQ(s.weather(), again.weather());
}

}  // namespace
}  // namespace h2p
