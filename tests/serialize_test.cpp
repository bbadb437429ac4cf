#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "core/serialize.h"
#include "sim/pipeline_sim.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

TEST(Serialize, SocRoundTrip) {
  const Soc original = Soc::kirin990();
  const Soc restored = soc_from_json(Json::parse(soc_to_json(original).dump()));
  EXPECT_EQ(restored.name(), original.name());
  ASSERT_EQ(restored.num_processors(), original.num_processors());
  for (std::size_t k = 0; k < original.num_processors(); ++k) {
    EXPECT_EQ(restored.processor(k).kind, original.processor(k).kind);
    EXPECT_DOUBLE_EQ(restored.processor(k).peak_gflops,
                     original.processor(k).peak_gflops);
    EXPECT_DOUBLE_EQ(restored.processor(k).l2_bytes, original.processor(k).l2_bytes);
  }
  EXPECT_DOUBLE_EQ(restored.bus_bw_gbps(), original.bus_bw_gbps());
  EXPECT_DOUBLE_EQ(restored.available_bytes(), original.available_bytes());
  ASSERT_EQ(restored.mem_states().size(), original.mem_states().size());
}

TEST(Serialize, RestoredSocPlansIdentically) {
  const Soc original = Soc::kirin990();
  const Soc restored = soc_from_json(soc_to_json(original));
  Fixture fx(testing_util::mixed_four(), restored);
  const PlannerReport r = Hetero2PipePlanner(*fx.eval).plan();
  Fixture fx2(testing_util::mixed_four(), original);
  const PlannerReport r2 = Hetero2PipePlanner(*fx2.eval).plan();
  EXPECT_DOUBLE_EQ(r.static_makespan_ms, r2.static_makespan_ms);
}

TEST(Serialize, PlanRoundTrip) {
  Fixture fx(testing_util::mixed_six());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const PipelinePlan restored =
      plan_from_json(Json::parse(plan_to_json(report.plan).dump()));
  EXPECT_EQ(restored.num_stages, report.plan.num_stages);
  ASSERT_EQ(restored.models.size(), report.plan.models.size());
  for (std::size_t i = 0; i < restored.models.size(); ++i) {
    EXPECT_EQ(restored.models[i].model_index, report.plan.models[i].model_index);
    EXPECT_EQ(restored.models[i].high_contention,
              report.plan.models[i].high_contention);
    EXPECT_EQ(restored.models[i].slices, report.plan.models[i].slices);
  }
  // The restored plan simulates identically.
  EXPECT_DOUBLE_EQ(simulate_plan(restored, *fx.eval).makespan_ms(),
                   simulate_plan(report.plan, *fx.eval).makespan_ms());
}

TEST(Serialize, PlanValidation) {
  Json j = Json::object();
  j["num_stages"] = Json::number(2);
  Json models = Json::array();
  Json mj = Json::object();
  mj["model_index"] = Json::number(0);
  mj["high_contention"] = Json::boolean(false);
  Json slices = Json::array();  // wrong count: 1 slice for 2 stages
  Json s = Json::array();
  s.push_back(Json::number(0));
  s.push_back(Json::number(3));
  slices.push_back(std::move(s));
  mj["slices"] = std::move(slices);
  models.push_back(std::move(mj));
  j["models"] = std::move(models);
  EXPECT_THROW(plan_from_json(j), std::runtime_error);
}

TEST(Serialize, SocValidation) {
  Json j = Json::object();
  j["name"] = Json::string("x");
  EXPECT_THROW(soc_from_json(j), std::runtime_error);  // missing processors

  // A SoC with no processors has nothing to plan on.
  Json empty = soc_to_json(Soc::kirin990());
  empty["processors"] = Json::array();
  try {
    (void)soc_from_json(empty);
    ADD_FAILURE() << "empty processors accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"processors\""), std::string::npos)
        << e.what();
  }

  // batch_capacity is a positive integer, not a truncated double.
  const std::string text = soc_to_json(Soc::kirin990()).dump();
  const std::string field = "\"batch_capacity\":";
  const std::size_t at = text.find(field) + field.size();
  const std::size_t end = text.find_first_of(",}", at);
  for (const char* cap : {"0", "-1", "1.5", "1e300"}) {
    std::string bad = text;
    bad.replace(at, end - at, cap);
    EXPECT_THROW(soc_from_json(Json::parse(bad)), std::runtime_error) << cap;
  }

  // Every built-in description loads back.
  for (const Soc& soc :
       {Soc::kirin990(), Soc::snapdragon778g(), Soc::snapdragon870()}) {
    EXPECT_NO_THROW((void)soc_from_json(Json::parse(soc_to_json(soc).dump())))
        << soc.name();
  }

  // Rates, bandwidths and sizes must be finite and positive; cache sizes,
  // latencies and power finite and non-negative.  Errors name the
  // processor (or mem state) index and the field.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](const Json& j, const std::string& needle) {
    try {
      (void)soc_from_json(j);
      ADD_FAILURE() << needle << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const Soc base = Soc::kirin990();
  const auto with_proc = [&](double Processor::*field, double v) {
    std::vector<Processor> procs = base.processors();
    procs[1].*field = v;
    return soc_to_json(Soc(base.name(), std::move(procs), base.bus_bw_gbps(),
                           base.mem_capacity_bytes(), base.available_bytes(),
                           base.mem_states()));
  };
  const std::pair<double Processor::*, const char*> positive[] = {
      {&Processor::peak_gflops, "peak_gflops"},
      {&Processor::mem_bw_gbps, "mem_bw_gbps"}};
  const std::pair<double Processor::*, const char*> non_negative[] = {
      {&Processor::l2_bytes, "l2_bytes"},
      {&Processor::launch_overhead_ms, "launch_overhead_ms"},
      {&Processor::copy_in_latency_ms, "copy_in_latency_ms"},
      {&Processor::tdp_watts, "tdp_watts"}};
  for (const auto& [field, name] : positive) {
    for (const double v : {-5.0, 0.0, inf, nan}) {
      expect_rejected(with_proc(field, v),
                      std::string("processor 1: \"") + name + "\" must be");
    }
  }
  for (const auto& [field, name] : non_negative) {
    for (const double v : {-1.0, inf, nan}) {
      expect_rejected(with_proc(field, v),
                      std::string("processor 1: \"") + name + "\" must be");
    }
    EXPECT_NO_THROW((void)soc_from_json(with_proc(field, 0.0))) << name;
  }
  for (const char* name :
       {"bus_bw_gbps", "mem_capacity_bytes", "available_bytes"}) {
    for (const double v : {-1.0, 0.0, inf}) {
      Json j = soc_to_json(base);
      j[name] = Json::number(v);
      expect_rejected(j, std::string("soc_from_json: \"") + name + "\" must be");
    }
  }
  for (const bool bad_mhz : {true, false}) {
    std::vector<MemFreqState> states = base.mem_states();
    ASSERT_FALSE(states.empty());
    (bad_mhz ? states.back().mhz : states.back().bw_gbps) = -1.0;
    const std::string field = bad_mhz ? "mhz" : "bw_gbps";
    expect_rejected(
        soc_to_json(Soc(base.name(), base.processors(), base.bus_bw_gbps(),
                        base.mem_capacity_bytes(), base.available_bytes(),
                        std::move(states))),
        "mem_state " + std::to_string(base.mem_states().size() - 1) + ": \"" +
            field + "\" must be");
  }
}

TEST(Serialize, TimelineExport) {
  Fixture fx(testing_util::mixed_four());
  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const Timeline t = simulate_plan(report.plan, *fx.eval);
  const Json j = timeline_to_json(t);
  EXPECT_DOUBLE_EQ(j.at("makespan_ms").as_number(), t.makespan_ms());
  EXPECT_EQ(j.at("tasks").size(), t.tasks.size());
  // Parses back as valid JSON.
  EXPECT_NO_THROW(Json::parse(j.dump()));
}

TEST(Serialize, UnknownProcKindRejected) {
  Json j = soc_to_json(Soc::kirin990());
  Json parsed = Json::parse(j.dump());
  // Patch a processor kind to garbage and expect a clean failure.
  std::string text = j.dump();
  const std::size_t pos = text.find("\"NPU\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\"XPU\"");
  EXPECT_THROW(soc_from_json(Json::parse(text)), std::runtime_error);
}

}  // namespace
}  // namespace h2p
